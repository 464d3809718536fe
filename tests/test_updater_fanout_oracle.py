"""The fan-out ``PropertyUpdater``, checked against the updater it replaced.

The paper's client/server scenario had a gauge consumer of its own,
``ModelUpdater`` (kept verbatim as ``reference.ModelUpdater``): four
hand-written appliers, two of which fan one report out to an element and
to the client role of the client's link.  The scenario now hands the
fan-out table ``GAUGE_PROPERTY_MAP`` to the one ``PropertyUpdater``.

Here both consume the same hypothesis report streams, each over its own
copy of one client/server model, with the same model surgery between
reports.  After every step they must agree on every model write so far,
in order — element, whether it is still part of the model, property and
value — and on ``applied``, ``skipped`` and the ``evaluate()`` calls.

Streams cover the four mapped kinds and unmapped ones; targets that are
present, removed and re-added; a link with and without its client role;
and subjects of two and four segments.  One divergence is named and
pinned (``TestTheOneDivergence``): a report without a numeric ``value``
is counted in ``skipped``, where ``ModelUpdater`` raised.
``TestTheOracleHasTeeth`` runs the same streams against mutants and wants
each of them caught.
"""

import random

import pytest
from hypothesis import Phase, find, given, settings, strategies as st
from hypothesis.errors import NoSuchExample
from reference import ModelUpdater

from repro.acme.elements import Connector, Role
from repro.bus import EventBus, FixedDelay
from repro.errors import UnknownElementError
from repro.experiment.runner import GAUGE_PROPERTY_MAP
from repro.runtime.updater import PropertyUpdater, component
from repro.sim import Simulator
from repro.styles.client_server import (
    build_client_server_model,
    client_link,
    client_role,
    link_name,
)

CLIENTS = ("C1", "C2")
GROUPS = ("SG1", "SG2")
#: no value attribute at all
MISSING = object()


def live(system, element) -> bool:
    """Whether ``element`` is still part of ``system`` (a removed one keeps
    its back-pointer, so the system still hears its writes)."""
    if isinstance(element, Role):
        conn = element.connector
        return conn._roles.get(element.name) is element and live(system, conn)
    if isinstance(element, Connector):
        return system._connectors.get(element.name) is element
    return system._components.get(element.name) is element


class Side:
    """One updater over its own model, bus and counting manager."""

    def __init__(self, make_updater):
        self.sim = Simulator()
        self.bus = EventBus(self.sim, FixedDelay(0.0))
        self.model = build_client_server_model(
            "M",
            assignments=dict(zip(CLIENTS, GROUPS)),
            groups={group: [f"S{k}"] for k, group in enumerate(GROUPS, start=1)},
        )
        self.writes = []
        self.model.on_property_change(self._heard)
        self.evaluations = 0
        self.updater = make_updater(self.model, self.bus, self)

    def evaluate(self):
        self.evaluations += 1

    def _heard(self, owner, name, old, new):
        self.writes.append(
            (owner.qualified_name, live(self.model, owner), name, repr(new))
        )

    def observe(self):
        updater = self.updater
        return self.writes, updater.applied, updater.skipped, self.evaluations

    def apply(self, op):
        """Run one step; the exception a report raised, else None."""
        kind = op[0]
        if kind == "report":
            _, gauge, target, segments, value = op
            subject = ".".join(["gauge", gauge, target, "x"][:segments])
            attributes = {} if value is MISSING else {"value": value}
            self.bus.publish_subject(subject, **attributes)
            try:
                self.sim.run()
            except (KeyError, TypeError, ValueError) as exc:
                return exc
            return None
        surgery(self.model, op)
        return None


def surgery(system, op):
    """Model edits between reports; a no-op when the target is not there
    (or already is)."""
    kind, name = op[0], op[1]
    link = link_name(name)
    if kind == "drop" and system.has_component(name):
        system.remove_component(name)
    elif kind == "restore" and not system.has_component(name):
        types = ["ClientT"] if name in CLIENTS else ["ServerGroupT"]
        system.new_component(name, types)
    elif kind == "drop_link" and system.has_connector(link):
        system.remove_connector(link)
    elif kind == "restore_link" and not system.has_connector(link):
        conn = system.new_connector(link, ["LinkT"])
        if op[2]:
            conn.add_role("client", {"ClientRoleT"})
    elif kind == "drop_role" and system.has_connector(link):
        conn = system.connector(link)
        if conn.has_role("client"):
            conn.remove_role("client")
    elif kind == "restore_role" and system.has_connector(link):
        conn = system.connector(link)
        if not conn.has_role("client"):
            conn.add_role("client", {"ClientRoleT"})


def numeric(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return value is not MISSING


def production(property_map=GAUGE_PROPERTY_MAP, cls=PropertyUpdater):
    return lambda model, bus, manager: cls(
        model, bus, manager, property_map=property_map
    )


def reference(model, bus, manager):
    return ModelUpdater(model, bus, arch_manager=manager)


# ---------------------------------------------------------------------------
# Report streams
# ---------------------------------------------------------------------------
NUMBERS = st.one_of(
    st.floats(allow_infinity=False, width=32),
    st.integers(-5, 50),
    st.sampled_from(["2.5", True]),
)
NOT_NUMBERS = st.sampled_from([MISSING, None, "abc"])
REPORTS = st.tuples(
    st.just("report"),
    st.sampled_from(["latency", "bandwidth", "load", "utilization", "queue"]),
    st.sampled_from(CLIENTS + GROUPS + ("link_C1", "ghost")),
    st.sampled_from([2, 3, 3, 3, 4]),
    st.one_of(NUMBERS, NOT_NUMBERS),
)
SURGERY = st.one_of(
    st.tuples(st.sampled_from(["drop", "restore"]), st.sampled_from(CLIENTS + GROUPS)),
    st.tuples(
        st.sampled_from(["drop_link", "drop_role", "restore_role"]),
        st.sampled_from(CLIENTS),
    ),
    st.tuples(st.just("restore_link"), st.sampled_from(CLIENTS), st.booleans()),
)
SCRIPTS = st.lists(st.one_of(REPORTS, REPORTS, SURGERY), max_size=40)


def lockstep(script, make_production=production()):
    """Run ``script`` on both sides, comparing after every step."""
    ours, theirs = Side(make_production), Side(reference)
    diverged = 0  # reports the reference raised on and we skipped
    for op in script:
        raised = theirs.apply(op)
        assert ours.apply(op) is None, op
        if raised is not None:
            # the one divergence: only a three-segment report without a
            # numeric value, which we count as skipped
            assert op[0] == "report" and op[3] == 3 and not numeric(op[4]), op
            diverged += 1
        writes, applied, skipped, evaluations = theirs.observe()
        assert ours.observe() == (writes, applied, skipped + diverged, evaluations), op


@settings(max_examples=300, deadline=None)
@given(script=SCRIPTS)
def test_fanout_table_writes_what_model_updater_wrote(script):
    lockstep(script)


class TestTheOneDivergence:
    @pytest.mark.parametrize("value", [MISSING, None, "abc"])
    @pytest.mark.parametrize("kind", ["latency", "bandwidth", "load", "queue"])
    def test_a_report_without_a_numeric_value_is_skipped_not_raised(self, kind, value):
        target = "SG1" if kind == "load" else "C1"
        op = ("report", kind, target, 3, value)
        theirs, ours = Side(reference), Side(production())
        assert isinstance(theirs.apply(op), (KeyError, TypeError, ValueError))
        assert theirs.observe() == ([], 0, 0, 0)
        assert ours.apply(op) is None
        assert ours.observe() == ([], 0, 1, 0)


# ---------------------------------------------------------------------------
# The oracle has teeth
# ---------------------------------------------------------------------------
def link_or_role(system, client):
    """Mutant resolver: falls back to the link when the role is absent."""
    link = client_link(system, client)
    return link.role("client") if link.has_role("client") else link


class KeepsTheElement(PropertyUpdater):
    """Mutant: the route memo keeps the first write's element, so a
    removed target is still written and a re-added one never is."""

    def _route(self, subject):
        route = super()._route(subject)
        if route is None:
            return None
        kind, target, resolve, prop, optional = route
        try:
            element = resolve(self.system, target)
        except UnknownElementError:
            return route
        route = (kind, target, lambda system, name: element, prop, optional)
        self._routes[subject] = route
        return route


class RoleRequired(PropertyUpdater):
    """Mutant: every write is required — a link without its client role
    skips the whole report."""

    def _route(self, subject):
        route = super()._route(subject)
        if route is None or not route[4]:
            return route
        kind, target, resolve, prop, optional = route

        def all_or_nothing(system, name):
            element = resolve(system, name)
            for extra, _ in optional:
                extra(system, name)
            return element

        route = self._routes[subject] = (kind, target, all_or_nothing, prop, optional)
        return route


def remapped(**entries):
    return production({**GAUGE_PROPERTY_MAP, **entries})


MUTANTS = {
    "role written before element": remapped(
        latency=((client_role, "averageLatency"), (component, "averageLatency")),
        bandwidth=((client_role, "bandwidth"), (client_link, "bandwidth")),
    ),
    "role written when absent": remapped(
        latency=((component, "averageLatency"), (link_or_role, "averageLatency")),
    ),
    "bandwidth written to the component": remapped(
        bandwidth=((component, "bandwidth"), (client_role, "bandwidth")),
    ),
    "a memo that keeps the element": production(cls=KeepsTheElement),
    "an absent role skips the report": production(cls=RoleRequired),
}


class TestTheOracleHasTeeth:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_a_generated_stream_catches(self, name):
        def caught(script):
            try:
                lockstep(script, MUTANTS[name])
            except AssertionError:
                return True
            return False

        try:
            find(
                SCRIPTS,
                caught,
                # the first stream that tells them apart will do: no shrinking
                settings=settings(
                    max_examples=2000,
                    deadline=None,
                    database=None,
                    phases=[Phase.generate],
                ),
                random=random.Random(27),
            )
        except NoSuchExample:  # pragma: no cover - the failure message
            pytest.fail(f"no generated stream tells the mutant apart: {name}")
