"""Each style's family, model builder and repair script agree.

A family declares element types only; the style's invariants and their
repairs live in its repair script (the Figure 5 DSL).  These tests tie
the two together for all six styles: the builder's model conforms to
its family, and every element type the repair script names is one the
family declares and the model instantiates.
"""

import pytest

from repro.acme import Family, validate_system
from repro.repair.dsl.parser import parse_repair_dsl
from repro.styles import client_server, grid_site, map_reduce
from repro.styles import master_worker, multi_tenant, pipeline

# style -> (family builder, model builder taking the family, repair script)
STYLES = {
    "client_server": (
        client_server.build_client_server_family,
        lambda fam: client_server.build_client_server_model(
            "CS",
            assignments={"C1": "SG1", "C2": "SG2"},
            groups={"SG1": ["S1", "S2"], "SG2": ["S3"]},
            family=fam,
        ),
        client_server.FIGURE5_DSL + client_server.UNDERUTILIZATION_DSL,
    ),
    "grid_site": (
        grid_site.build_grid_site_family,
        lambda fam: grid_site.build_grid_site_model(
            "GS", [("east", 2, 4), ("west", 1, 3)], family=fam
        ),
        grid_site.GRID_SITE_DSL,
    ),
    "map_reduce": (
        map_reduce.build_map_reduce_family,
        lambda fam: map_reduce.build_map_reduce_model(
            "MR", ["r1", "r2"], [3, 2], family=fam
        ),
        map_reduce.MAP_REDUCE_DSL,
    ),
    "master_worker": (
        master_worker.build_master_worker_family,
        lambda fam: master_worker.build_master_worker_model("MW", 4, 1, family=fam),
        master_worker.MASTER_WORKER_DSL,
    ),
    "multi_tenant": (
        multi_tenant.build_multi_tenant_family,
        lambda fam: multi_tenant.build_multi_tenant_model(
            "MT", ["a", "b"], 4, 1, family=fam
        ),
        multi_tenant.MULTI_TENANT_DSL,
    ),
    "pipeline": (
        pipeline.build_pipeline_family,
        lambda fam: pipeline.build_pipeline_model("P", ["a", "b", "c"], family=fam),
        pipeline.PIPELINE_DSL,
    ),
}

# Value types a repair script may name that are not element types.
PRIMITIVES = {"boolean", "int", "float", "string"}


def elements(system):
    for comp in system.components:
        yield comp
        yield from comp.ports
    for conn in system.connectors:
        yield conn
        yield from conn.roles


@pytest.mark.parametrize("style", sorted(STYLES))
def test_model_conforms_to_family(style):
    build_family, build_model, _ = STYLES[style]
    family = build_family()
    system = build_model(family)
    assert validate_system(system, family) == []
    # The check is not vacuous: against a family with no types, every
    # typed element of the model is reported.
    bare = validate_system(system, Family(family.name))
    typed = [el for el in elements(system) if el.types]
    assert typed
    assert {issue.element for issue in bare} >= {el.qualified_name for el in typed}


@pytest.mark.parametrize("style", sorted(STYLES))
def test_repair_script_names_only_family_types(style):
    build_family, build_model, dsl = STYLES[style]
    family = build_family()
    system = build_model(family)
    document = parse_repair_dsl(dsl)
    assert document.invariants
    named = set()
    for decl in [*document.strategies.values(), *document.tactics.values()]:
        named.update(p.type_name for p in decl.params if p.type_name)
        if getattr(decl, "returns", None):
            named.add(decl.returns)
    element_types = named - PRIMITIVES
    assert element_types
    for tname in sorted(element_types):
        assert family.has_type(tname), f"{style}: {tname} not in {family.name}"
        assert any(el.declares_type(tname) for el in elements(system)), (
            f"{style}: no element of the model declares {tname}"
        )
