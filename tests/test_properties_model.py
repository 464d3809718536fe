"""Property-based tests (hypothesis): model transactions and model text.

* abort-restores-everything: after arbitrary random edit sequences inside a
  transaction, abort returns the model to a state indistinguishable from
  the original snapshot;
* the text tells states apart: two states of a system whose snapshots
  differ get different ``unparse_system`` text, and equal snapshots the
  same text — what the forwarding, partition and DSL differential suites
  rely on when they compare models by their text.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.acme import ArchSystem, unparse_system
from repro.repair import ModelTransaction

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


def snapshot(system: ArchSystem):
    """A comparable deep description of the system's observable state."""
    comps = {}
    for c in system.components:
        comps[c.name] = (
            tuple(sorted(c.types)),
            tuple(sorted(p.name for p in c.ports)),
            tuple((p.name, p.value) for p in c.properties()),
        )
    conns = {}
    for k in system.connectors:
        conns[k.name] = (
            tuple(sorted(k.types)),
            tuple(sorted(r.name for r in k.roles)),
            tuple((p.name, p.value) for p in k.properties()),
        )
    atts = tuple(a.key for a in system.attachments)
    return comps, conns, atts


@st.composite
def base_systems(draw):
    system = ArchSystem("S")
    n_comp = draw(st.integers(min_value=1, max_value=4))
    for i in range(n_comp):
        comp = system.new_component(f"c{i}", ["NodeT"])
        comp.add_port("p")
        comp.declare_property("load", float(draw(
            st.integers(min_value=0, max_value=50))), "float")
    n_conn = draw(st.integers(min_value=0, max_value=3))
    for i in range(n_conn):
        conn = system.new_connector(f"k{i}", ["EdgeT"])
        conn.add_role("r0")
        src = draw(st.integers(min_value=0, max_value=n_comp - 1))
        system.attach(system.component(f"c{src}").port("p"), conn.role("r0"))
    return system


EDITS = [
    "set_prop",
    "add_comp",
    "remove_comp",
    "detach",
    "add_conn",
    "add_port",
    "add_role",
    "remove_port",
    "remove_role",
]


@st.composite
def edit_scripts(draw):
    """A list of abstract edit operations applied inside the transaction."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(EDITS))
        ops.append((kind, draw(st.integers(min_value=0, max_value=10))))
    return ops


def apply_edits(system: ArchSystem, ops) -> None:
    for kind, arg in ops:
        comps = system.components
        if kind == "set_prop" and comps:
            comp = comps[arg % len(comps)]
            if comp.has_property("load"):
                comp.set_property("load", float(arg * 7))
        elif kind == "add_comp":
            name = f"new{arg}"
            if not system.has_component(name) and not system.has_connector(name):
                system.new_component(name, ["NodeT"])
        elif kind == "remove_comp" and comps:
            system.remove_component(comps[arg % len(comps)].name)
        elif kind == "detach" and system.attachments:
            att = system.attachments[arg % len(system.attachments)]
            system.detach(att.port, att.role)
        elif kind == "add_conn":
            name = f"nk{arg}"
            if not system.has_connector(name) and not system.has_component(name):
                conn = system.new_connector(name, ["EdgeT"])
                conn.add_role("r0")
        elif kind in ("add_port", "add_role"):
            owners = comps if kind == "add_port" else system.connectors
            if owners:
                owner = owners[arg % len(owners)]
                slot = f"s{arg}"
                if kind == "add_port" and not owner.has_port(slot):
                    owner.add_port(slot)
                elif kind == "add_role" and not owner.has_role(slot):
                    owner.add_role(slot)
        elif kind in ("remove_port", "remove_role"):
            owners = comps if kind == "remove_port" else system.connectors
            if owners:
                owner = owners[arg % len(owners)]
                if kind == "remove_port" and owner.ports:
                    owner.remove_port(owner.ports[arg % len(owner.ports)].name)
                elif kind == "remove_role" and owner.roles:
                    owner.remove_role(owner.roles[arg % len(owner.roles)].name)


@settings(max_examples=80, deadline=None)
@given(base_systems(), edit_scripts())
def test_abort_restores_snapshot(system, ops):
    before = snapshot(system)
    txn = ModelTransaction(system).begin()
    apply_edits(system, ops)
    txn.abort()
    assert snapshot(system) == before


@settings(max_examples=80, deadline=None)
@given(base_systems(), edit_scripts(), edit_scripts())
def test_savepoint_rollback_keeps_prefix(system, prefix_ops, suffix_ops):
    txn = ModelTransaction(system).begin()
    apply_edits(system, prefix_ops)
    mid = snapshot(system)
    mark = txn.mark()
    apply_edits(system, suffix_ops)
    txn.rollback_to(mark)
    assert snapshot(system) == mid
    txn.commit()
    assert snapshot(system) == mid


def states_tell_apart(states):
    """For every pair of (snapshot, text) states: equal text iff equal
    snapshot."""
    for i, (snap_a, text_a) in enumerate(states):
        for snap_b, text_b in states[i + 1:]:
            assert (snap_a == snap_b) == (text_a == text_b), (text_a, text_b)


@settings(max_examples=120, deadline=None)
@given(base_systems(), edit_scripts())
def test_text_differs_where_snapshot_differs(system, ops):
    """Every state an edit script passes through, compared pairwise."""
    states = [(snapshot(system), unparse_system(system))]
    for op in ops:
        apply_edits(system, [op])
        states.append((snapshot(system), unparse_system(system)))
    states_tell_apart(states)


@settings(max_examples=60, deadline=None)
@given(base_systems(), edit_scripts(), base_systems(), edit_scripts())
def test_text_differs_between_systems(first, first_ops, second, second_ops):
    """Two independently generated and edited systems, committed edits."""
    states = []
    for system, ops in ((first, first_ops), (second, second_ops)):
        txn = ModelTransaction(system).begin()
        apply_edits(system, ops)
        txn.commit()
        states.append((snapshot(system), unparse_system(system)))
    states_tell_apart(states)


def test_text_differs_in_types_alone():
    """No edit changes a type, so the properties above never see two
    states apart only there: a component, port, connector or role type
    changed alone still changes the text."""

    def build(comp_t="NodeT", port_t=(), conn_t="EdgeT", role_t=()):
        system = ArchSystem("S")
        comp = system.new_component("c0", [comp_t])
        comp.add_port("p", port_t)
        conn = system.new_connector("k0", [conn_t])
        conn.add_role("r0", role_t)
        system.attach(comp.port("p"), conn.role("r0"))
        return system

    variants = [
        {},
        {"comp_t": "HubT"},
        {"port_t": ["InT"]},
        {"conn_t": "LinkT"},
        {"role_t": ["SinkT"]},
    ]
    texts = {unparse_system(build(**variant)) for variant in variants}
    assert len(texts) == len(variants)
