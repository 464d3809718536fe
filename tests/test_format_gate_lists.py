"""The format gate is written down twice and both copies must agree.

``.github/workflows/ci.yml`` runs ``ruff format --check`` over a list of
ratcheted paths; ``tools/format_check.py::RATCHETED`` mirrors it for
machines without ruff.  The two were kept "identical" by hand; this
parses both and fails when they differ, or when either names a path
that no longer exists.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent


def ci_gate_paths():
    """The arguments of ci.yml's ``ruff format --check`` folded scalar:
    the more-indented lines that follow it."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if "ruff format --check" in line]
    starts = [i for i in starts if lines[i].strip() == "ruff format --check"]
    assert len(starts) == 1, "expected one `ruff format --check` command in ci.yml"
    start = starts[0]
    indent = len(lines[start]) - len(lines[start].lstrip())
    paths = []
    for line in lines[start + 1 :]:
        if not line.strip() or len(line) - len(line.lstrip()) < indent:
            break
        paths.append(line.strip())
    return paths


def ratcheted_paths():
    spec = importlib.util.spec_from_file_location(
        "format_check", ROOT / "tools" / "format_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.RATCHETED)


def test_ci_format_gate_and_local_mirror_list_the_same_paths():
    ci, local = ci_gate_paths(), ratcheted_paths()
    assert len(ci) > 40  # the parse found the list, not a fragment of it
    assert ci == local
    assert len(set(ci)) == len(ci)
    missing = [path for path in ci if not (ROOT / path).exists()]
    assert not missing, f"format gate names paths that do not exist: {missing}"


def format_problems(tmp_path, source):
    spec = importlib.util.spec_from_file_location(
        "format_check", ROOT / "tools" / "format_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "sample.py"
    path.write_text(source)
    return [message for _line, message in module.check_file(path)]


def test_magic_trailing_comma_wants_one_element_per_line(tmp_path):
    source = "CALL = f(\n    a, b,\n    c,\n)\n"
    assert format_problems(tmp_path, source) == [
        "magic trailing comma: elements must be one per line"
    ]
    exploded = "CALL = f(\n    a,\n    b,\n    c,\n)\n"
    assert format_problems(tmp_path, exploded) == []


def test_lambda_parameters_and_returned_tuples_are_not_elements(tmp_path):
    source = (
        "OPS = {\n"
        '    "prefix": lambda a, b: a.startswith(b),\n'
        '    "any": lambda: True,\n'
        "}\n"
        "\n"
        "\n"
        "def one(x):\n"
        "    return (x,)\n"
    )
    assert format_problems(tmp_path, source) == []


def test_tuple_target_opening_a_statement_keeps_its_comma(tmp_path):
    """A one-element tuple that starts a statement has no previous token:
    the token before it belongs to the statement before."""
    source = (
        "def one(items):\n"
        "    count = len(items)\n"
        "    (first,) = items\n"
        "    return first, count\n"
        "\n"
        "\n"
        "(last,) = [one([1])]\n"
    )
    assert format_problems(tmp_path, source) == []
    call = "x = f(a,)\n"
    assert format_problems(tmp_path, call) == ["one-line group keeps trailing comma"]
