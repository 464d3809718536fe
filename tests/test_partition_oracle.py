"""The moving partition, checked against the rebuilding one it replaced.

``ShardedArchSystem.partition`` hands each shard the source's own
elements; ``reference.rebuild_partition`` built fresh copies instead.
Two equal models are partitioned, one each way, and the results must
agree on everything a reader of a sharded model can see: the
``assignment``, the ``cross_links``, and per shard its name and family,
its components, connectors and attachments (in insertion order, which
``attached_role`` can observe), every element's types and property
values and types (ports and roles included) and the unparsed text.
Inputs are ``multi_tenant`` models of several sizes and hypothesis
graphs with unattached connectors, ports on several roles and
attachments that end up spanning shards, under both registered shard
keys and one to five shards.  One shard is the one deliberate
difference: the source itself, not a system named ``<source>[0]``.
"""

import pytest
from hypothesis import given, settings, strategies as st
from reference import rebuild_partition

from repro.acme.sharding import ShardedArchSystem
from repro.acme.system import ArchSystem
from repro.acme.unparser import unparse_system
from repro.runtime.sharding import resolve_shard_key
from repro.styles.multi_tenant import (
    build_multi_tenant_family,
    build_multi_tenant_model,
)

KEYS = ("hash", "numeric_suffix")


def properties(element):
    return [(p.name, p.value, p.ptype) for p in element.properties()]


def element_view(element, children):
    return (
        element.name,
        sorted(element.types),
        properties(element),
        [(c.name, sorted(c.types), properties(c)) for c in children],
    )


def shard_view(part):
    return {
        "name": part.name,
        "family": part.family,
        "components": [element_view(c, c.ports) for c in part._components.values()],
        "connectors": [element_view(c, c.roles) for c in part._connectors.values()],
        "attachments": list(part._attachments),
        "text": unparse_system(part),
    }


def observe(model):
    return {
        "assignment": model.assignment,
        "cross_links": model.cross_links,
        "name": model.name,
        "family": model.family,
        "shards": [shard_view(part) for part in model.shards],
    }


def element_ids(model):
    components = {id(e) for c in model.components for e in [c, *c.ports]}
    return components | {id(e) for c in model.connectors for e in [c, *c.roles]}


def agree(build, shards, key):
    """Partition two models from ``build`` both ways; return the moved one."""
    key_fn = resolve_shard_key(key)
    source = build()
    elements = element_ids(source)
    moved = ShardedArchSystem.partition(source, shards, key_fn)
    expected = observe(rebuild_partition(build(), shards, key_fn))
    if shards == 1:
        # one shard is the source itself: untouched, under its own name
        assert moved.shard(0) is source
        expected["shards"] = [shard_view(build())]
    else:  # nothing left behind
        assert source.components == source.connectors == source.attachments == []
    assert observe(moved) == expected
    # the very same objects
    assert element_ids(moved) == elements
    return moved


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("shards", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("tenants", [1, 4, 13, 40])
def test_multi_tenant_models(tenants, shards, key):
    family = build_multi_tenant_family()
    names = [f"T{i}" for i in range(tenants)]

    def build():
        return build_multi_tenant_model("Tenancy", names, 3, 2, family=family)

    moved = agree(build, shards, key)
    assert sum(len(part.components) for part in moved.shards) == tenants + 1


NAMES = st.from_regex(r"[a-z]{1,3}[0-9]{0,2}", fullmatch=True)
SLOTS = st.lists(st.sampled_from(["p", "q", "src", "sink"]), unique=True, max_size=3)
VALUES = st.one_of(
    st.integers(-5, 50),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="abc", max_size=3),
    st.booleans(),
)
PROPS = st.dictionaries(st.sampled_from(["size", "load", "label"]), VALUES, max_size=3)
TYPES = st.lists(st.sampled_from(["NodeT", "LinkT", "HubT"]), max_size=2)


@st.composite
def graphs(draw):
    """A recipe for a model: components with ports, connectors with roles,
    properties on all four, and each role attached to some port or none."""
    names = draw(st.lists(NAMES, min_size=1, max_size=10, unique=True))
    split = draw(st.integers(1, len(names)))

    def elements(group):
        return [
            (
                name,
                draw(TYPES),
                draw(PROPS),
                [(slot, draw(TYPES), draw(PROPS)) for slot in draw(SLOTS)],
            )
            for name in group
        ]

    components, connectors = elements(names[:split]), elements(names[split:])
    ports = [(c[0], slot[0]) for c in components for slot in c[3]]
    attachments = []
    for conn in connectors:
        for slot in conn[3]:
            if ports and draw(st.booleans()):
                attachments.append((draw(st.sampled_from(ports)), (conn[0], slot[0])))
    return components, connectors, attachments


def declare(element, props):
    for prop, value in props.items():
        element.set_property(prop, value)
    return element


def build_graph(recipe):
    components, connectors, attachments = recipe
    system = ArchSystem("G", family="Fam")
    for name, types, props, ports in components:
        comp = declare(system.new_component(name, types), props)
        for port, port_types, port_props in ports:
            declare(comp.add_port(port, port_types), port_props)
    for name, types, props, roles in connectors:
        conn = declare(system.new_connector(name, types), props)
        for role, role_types, role_props in roles:
            declare(conn.add_role(role, role_types), role_props)
    for (comp, port), (conn, role) in attachments:
        system.attach(
            system.component(comp).port(port), system.connector(conn).role(role)
        )
    return system


@settings(max_examples=150, deadline=None)
@given(
    recipe=graphs(),
    shards=st.integers(1, 4),
    key=st.sampled_from(KEYS),
)
def test_generated_graphs(recipe, shards, key):
    agree(lambda: build_graph(recipe), shards, key)
