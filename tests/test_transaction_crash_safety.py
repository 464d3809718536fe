"""Randomized crash-safety: an aborted transaction restores the model
bit for bit, no matter where mid-tactic the crash lands.

Each seed generates one deterministic multi-step edit script mixing
property writes, property creation/removal, structural surgery and
attachment changes.  The script is then crashed at *every* step
boundary against a fresh model; after ``abort()`` the full structural
snapshot — element sets, types, ports/roles, every property's value AND
existence AND type tag, every attachment — must equal the pre-repair
snapshot exactly.
"""

import random

import pytest

from repro.acme.elements import Component, Connector
from repro.acme.system import ArchSystem
from repro.errors import AttachmentError
from repro.repair.transactions import ModelTransaction
from repro.styles import build_client_server_model

SEEDS = range(6)
STEPS = 14


class Boom(Exception):
    """The injected mid-tactic crash."""


def build_system():
    return build_client_server_model(
        "S",
        assignments={"C1": "SG1", "C2": "SG2"},
        groups={"SG1": ["S1", "S2"], "SG2": ["S5"]},
    )


def snapshot(system):
    """Everything observable about the model, as comparable data."""

    def props(el):
        return {
            name: (repr(el.get_property(name)), el._props[name].ptype)
            for name in el.property_names()
        }

    def elem(el):
        return (sorted(el.types), props(el))

    return {
        "components": {
            c.name: (elem(c), {p.name: elem(p) for p in c.ports})
            for c in system.components
        },
        "connectors": {
            k.name: (elem(k), {r.name: elem(r) for r in k.roles})
            for k in system.connectors
        },
        "attachments": sorted(
            (a.port.qualified_name, a.role.qualified_name)
            for a in system.attachments
        ),
        # what attach()'s "already attached" check sees, role by role:
        # an undo that restored the attachment but not the role index
        # (or the reverse) shows as a difference here
        "attached_roles": {
            r.qualified_name: getattr(system.attached_port(r), "qualified_name", None)
            for k in system.connectors
            for r in k.roles
        },
    }


def make_script(seed, steps=STEPS):
    """A deterministic list of (description, edit(system)) steps.

    Generation tracks which elements/properties the script has created
    or removed so every step is applicable no matter where a replay
    crashes: a step only references elements alive at its point in the
    script, and runtime picks index into sorted live state (identical
    across replays of the same prefix).
    """
    rng = random.Random(seed)
    comps = ["C1", "C2", "SG1", "SG2"]
    conns = ["link_C1", "link_C2"]
    created_props = []  # (kind, owner, prop) the script itself set
    script = []
    next_id = 0

    def step_set_known():
        name = rng.choice(comps)
        value = round(rng.uniform(0.0, 50.0), 3)
        return (
            f"set {name}.load={value}",
            lambda s: s.component(name).set_property("load", value),
        )

    def step_set_new():
        nonlocal next_id
        owner = rng.choice(comps + conns)
        prop = f"x{next_id}"
        next_id += 1
        value = round(rng.uniform(0.0, 1.0), 3)
        kind = "component" if owner in comps else "connector"
        created_props.append((kind, owner, prop))

        def fn(s, o=owner, k=kind, p=prop, v=value):
            el = s.component(o) if k == "component" else s.connector(o)
            el.set_property(p, v)

        return f"create {owner}.{prop}", fn

    def step_set_role():
        conn = rng.choice(conns)
        value = round(rng.uniform(0.0, 9.0), 3)
        return (
            f"set {conn}.client.averageLatency",
            lambda s: s.connector(conn).role("client").set_property(
                "averageLatency", value
            ),
        )

    def step_remove_prop():
        if not created_props:
            return step_set_new()
        kind, owner, prop = created_props.pop(rng.randrange(len(created_props)))

        def fn(s, o=owner, k=kind, p=prop):
            el = s.component(o) if k == "component" else s.connector(o)
            el.remove_property(p)

        return f"remove {owner}.{prop}", fn

    def step_add_component():
        nonlocal next_id
        name = f"N{next_id}"
        next_id += 1
        comps.append(name)

        def fn(s, n=name):
            comp = Component(n, {"ServerT"})
            comp.add_port("p")
            comp.set_property("load", 0.0)
            s.add_component(comp)

        return f"add component {name}", fn

    def step_remove_component():
        # only components this script added: removing C1/SG1 would strand
        # later generated steps that still reference them
        mine = [c for c in comps if c.startswith("N")]
        if not mine:
            return step_add_component()
        name = mine[rng.randrange(len(mine))]
        comps.remove(name)
        created_props[:] = [e for e in created_props if e[1] != name]
        return f"remove component {name}", lambda s: s.remove_component(name)

    def step_attach_pair():
        nonlocal next_id
        cname, kname = f"N{next_id}", f"K{next_id}"
        next_id += 1
        comps.append(cname)
        conns_local = kname  # connector intentionally NOT reused later

        def fn(s, cn=cname, kn=conns_local):
            comp = Component(cn)
            comp.add_port("p")
            s.add_component(comp)
            conn = Connector(kn)
            conn.add_role("r")
            s.add_connector(conn)
            s.attach(comp.port("p"), conn.role("r"))

        return f"attach {cname}.p to {kname}.r", fn

    def step_detach():
        index = rng.randrange(8)

        def fn(s, i=index):
            atts = s.attachments
            if not atts:
                return
            att = atts[i % len(atts)]
            s.detach(att.port, att.role)

        return f"detach #{index}", fn

    makers = [
        step_set_known,
        step_set_new,
        step_set_role,
        step_remove_prop,
        step_add_component,
        step_remove_component,
        step_attach_pair,
        step_detach,
    ]
    for _ in range(steps):
        script.append(rng.choice(makers)())
    return script


def crash_at(system, script, crash_index):
    """Run ``script`` inside a transaction, crash after ``crash_index``
    steps, abort, and return nothing — the caller compares snapshots."""
    txn = ModelTransaction(system).begin()
    try:
        for _, edit in script[:crash_index]:
            edit(system)
        raise Boom()
    except Boom:
        txn.abort()


@pytest.mark.parametrize("seed", SEEDS)
def test_abort_restores_model_at_every_crash_point(seed):
    script = make_script(seed)
    for crash_index in range(1, len(script) + 1):
        system = build_system()
        before = snapshot(system)
        crash_at(system, script, crash_index)
        after = snapshot(system)
        assert after == before, (
            f"seed {seed}: abort after step {crash_index} "
            f"({script[crash_index - 1][0]!r}) did not restore the model"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_script_actually_mutates_when_committed(seed):
    """Guards the suite against vacuity: the same scripts, committed,
    must leave the model visibly changed."""
    system = build_system()
    before = snapshot(system)
    txn = ModelTransaction(system).begin()
    for _, edit in make_script(seed):
        edit(system)
    assert txn.touched()  # a non-empty write footprint
    txn.commit()
    assert snapshot(system) != before


@pytest.mark.parametrize("seed", [0, 3])
def test_savepoint_rollback_restores_mid_script_state(seed):
    script = make_script(seed)
    pivot = len(script) // 2
    system = build_system()
    before = snapshot(system)
    txn = ModelTransaction(system).begin()
    for _, edit in script[:pivot]:
        edit(system)
    mark = txn.mark()
    middle = snapshot(system)
    for _, edit in script[pivot:]:
        edit(system)
    txn.rollback_to(mark)
    assert snapshot(system) == middle
    txn.abort()
    assert snapshot(system) == before


def test_created_property_is_removed_on_abort():
    """The regression the sentinel fix closes: a property created inside
    an aborted repair must not survive as a ``None``-valued leftover."""
    system = build_system()
    comp = system.component("SG1")
    assert not comp.has_property("ghost")
    txn = ModelTransaction(system).begin()
    comp.set_property("ghost", 1.0)
    txn.abort()
    assert not comp.has_property("ghost")


def test_removed_property_is_restored_on_abort():
    system = build_system()
    comp = system.component("SG1")
    comp.set_property("extra", 7.0)
    txn = ModelTransaction(system).begin()
    comp.remove_property("extra")
    assert not comp.has_property("extra")
    txn.abort()
    assert comp.get_property("extra") == 7.0


# ---------------------------------------------------------------------------
# attach()'s role check: indexed, and in step with every undo closure
# ---------------------------------------------------------------------------
def _pair(system, i):
    comp = system.new_component(f"c{i}")
    conn = system.new_connector(f"k{i}")
    return comp.add_port("p"), conn.add_role("r")


def test_role_check_follows_attach_detach_and_abort():
    system = ArchSystem("S")
    port, role = _pair(system, 0)
    other, _ = _pair(system, 1)
    system.attach(port, role)
    with pytest.raises(AttachmentError, match="role k0.r is already attached"):
        system.attach(other, role)

    txn = ModelTransaction(system).begin()
    system.detach(port, role)
    system.attach(other, role)  # free again inside the transaction
    txn.abort()
    assert system.attached_port(role) is port
    with pytest.raises(AttachmentError, match="already attached"):
        system.attach(other, role)

    txn = ModelTransaction(system).begin()
    system.remove_connector("k0")  # drops the attachment with it
    assert system.attached_port(role) is None
    txn.abort()
    assert system.attached_port(role) is port

    system.detach(port, role)
    txn = ModelTransaction(system).begin()
    system.attach(other, role)
    txn.abort()  # the aborted attach must free the role again
    assert system.attached_port(role) is None
    system.attach(port, role)
    assert system.is_attached(port, role)


def test_attach_checks_the_role_without_scanning_attachments():
    """2000 attachments, and no attach() may walk the ones before it."""

    class NoScan(dict):
        def _scan(self, *args):
            raise AssertionError("attach() scanned the attachment table")

        __iter__ = keys = values = items = _scan

    system = ArchSystem("S")
    pairs = [_pair(system, i) for i in range(2000)]
    system._attachments = NoScan()
    for port, role in pairs:
        system.attach(port, role)
    assert len(system._attachments) == 2000
    with pytest.raises(AttachmentError, match="already attached"):
        system.attach(pairs[0][0], pairs[-1][1])
