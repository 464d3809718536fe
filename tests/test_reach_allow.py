"""The reachability gate's allow list (``tools/reach_allow.txt``) stays honest.

Reads files only; the census itself (``python tools/reach.py``) runs in
its own CI job.  Every line names a def that exists under ``src/repro``,
one of the six categories and a reason, and the list never grows: the
ceiling below only comes down, as defs get a caller or get deleted.
"""

import importlib.util
import inspect
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: lines in tools/reach_allow.txt; lower it when the list shrinks, never raise it
CEILING = 242


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()
ENTRIES = reach.allow_entries(reach.ALLOW.read_text())


def test_the_list_only_shrinks():
    assert len(ENTRIES) <= CEILING, (
        f"{len(ENTRIES)} allow-list lines > {CEILING}: give the new defs a "
        "caller or delete them instead"
    )


def test_every_entry_names_a_def_that_exists():
    known = {
        (str(Path(path).relative_to(ROOT)), qualname)
        for (path, _), (qualname, _) in reach.defs().items()
    }
    gone = [f"{path}:{qualname}" for path, qualname, _, _ in ENTRIES
            if (path, qualname) not in known]
    assert not gone, f"allow-list lines for defs that no longer exist: {gone}"


def test_every_entry_has_a_known_category_and_a_reason():
    for path, qualname, category, reason in ENTRIES:
        assert category in reach.CATEGORIES, (path, qualname, category)
        assert reason.strip(), (path, qualname)


@pytest.mark.parametrize(
    "line",
    [
        "src/repro/api.py:run  unused  no such category",
        "src/repro/api.py:run  public",
        "src/repro/api.py  public  no qualname",
        "src/repro/api.py:run  public  one\nsrc/repro/api.py:run  bench  twice",
    ],
    ids=["unknown-category", "empty-reason", "no-qualname", "listed-twice"],
)
def test_a_malformed_line_is_refused(line):
    with pytest.raises(ValueError):
        reach.allow_entries(line)


def _function_codes(code):
    """Every def's code object nested in ``code`` (no lambdas,
    comprehensions or class bodies)."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            optimized = const.co_flags & inspect.CO_OPTIMIZED
            if optimized and not const.co_name.startswith("<"):
                yield const
            yield from _function_codes(const)


def test_defs_are_keyed_as_the_census_sees_them():
    """The census matches a def to the code objects it entered by
    ``(co_filename, co_firstlineno)``: every def the source compiles to
    must sit under that key, named as its code object is."""
    found = {key: qualname.rsplit(".", 1)[-1]
             for key, (qualname, _) in reach.defs().items()}
    compiled = {}
    for module in sorted(reach.SRC.rglob("*.py")):
        for code in _function_codes(compile(module.read_text(), str(module), "exec")):
            compiled[code.co_filename, code.co_firstlineno] = code.co_name
    assert found == compiled
