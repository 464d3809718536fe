"""The flow engine's bookkeeping, checked against the engine it replaced.

``FlowNetwork`` keeps a standing link index, counts the flows still filling
on each link, and projects one completion per solve.  None of that may move
a float: the oracles here are the code it replaced, kept verbatim —

* ``parent_waterfill``: the solver that rebuilt ``residual`` / ``on_link``
  and re-counted every link's unfrozen members on every round;
* ``PerFlowNetwork``: that solver plus one scheduled ``_maybe_complete`` per
  flow per re-solve (most of which fire stale).

Random operation sequences run on both engines in lockstep, over random
trees and over the paper's testbed.  After *every* operation the rates are
``==`` the old solver's (bit-equal, never ``approx``), ``link_load`` is the
filtered sum over ``_flows``, the index equals one rebuilt from ``_flows``,
and the two engines agree on the clock, on every flow's rate and remaining
bits, and on the done-callback log (instant, transfer, outcome).

Sizes, capacities and the clock stay small enough that no projected
completion leaves a float sliver behind (``PerFlowNetwork.slivers`` is
asserted to be 0): the sliver branch is the one place the two engines may
differ in the last ulp, and it has its own scripted test below.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.experiment.testbed import build_testbed
from repro.net import FlowNetwork, Topology
from repro.net.flows import _EPS_BW
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# The oracles: the replaced engine, verbatim
# ---------------------------------------------------------------------------
def parent_waterfill(self) -> None:
    """Two-tier allocation: priority demands first, then max-min fill."""
    flows = [self._flows[k] for k in sorted(self._flows)]
    if not flows:
        return
    residual = {}
    on_link = {}
    for f in flows:
        f.rate = 0.0
        for link in f.links:
            residual.setdefault(link.key, link.capacity)
            on_link.setdefault(link.key, []).append(f)

    # Tier 1: unresponsive competition takes its demand up front.
    elastic = []
    for f in flows:
        if not f.priority:
            elastic.append(f)
            continue
        take = min(
            f.cap if f.cap is not None else math.inf,
            min(residual[link.key] for link in f.links),
        )
        take = max(0.0, take)
        f.rate = take
        for link in f.links:
            residual[link.key] -= take

    # Tier 2: progressive filling of elastic flows over the residual.
    unfrozen = {f.fid: f for f in elastic}
    headroom = {f.fid: (f.cap if f.cap is not None else math.inf) for f in elastic}

    while unfrozen:
        # Largest uniform increment every unfrozen flow can take.
        inc = math.inf
        for key, members in on_link.items():
            n = sum(1 for m in members if m.fid in unfrozen)
            if n:
                inc = min(inc, residual[key] / n)
        for fid in unfrozen:
            inc = min(inc, headroom[fid])
        if not math.isfinite(inc):
            break  # unconstrained (cannot happen: flows have links)
        if inc > _EPS_BW:
            for fid, f in unfrozen.items():
                f.rate += inc
                headroom[fid] -= inc
            for key, members in on_link.items():
                n = sum(1 for m in members if m.fid in unfrozen)
                residual[key] -= inc * n

        # Freeze exactly the flows whose constraint binds (a saturated
        # link or exhausted cap) and keep filling the others — a flow
        # pinned at zero must not stall its peers.
        frozen_now = []
        for key, members in on_link.items():
            if residual[key] <= _EPS_BW:
                frozen_now.extend(m.fid for m in members if m.fid in unfrozen)
        for fid in list(unfrozen):
            if headroom[fid] <= _EPS_BW:
                frozen_now.append(fid)
        if not frozen_now:
            break  # numerically stuck; accept current allocation
        for fid in frozen_now:
            unfrozen.pop(fid, None)


def reference_rates(net):
    """What the replaced solver allocates to ``net``'s flow set (pure)."""
    clones = {
        fid: SimpleNamespace(
            fid=fid, links=f.links, cap=f.cap, priority=f.priority, rate=f.rate
        )
        for fid, f in net._flows.items()
    }
    parent_waterfill(SimpleNamespace(_flows=clones))
    return {fid: clone.rate for fid, clone in clones.items()}


class PerFlowNetwork(FlowNetwork):
    """The replaced engine: its solver, and one event per flow per re-solve."""

    slivers = 0
    _solve = parent_waterfill

    def _project(self):
        self._epoch += 1
        epoch = self._epoch
        for flow in self._flows.values():
            if flow.persistent or flow.rate <= _EPS_BW:
                continue
            eta = flow.remaining_bits / flow.rate
            self.sim.schedule(eta, self._maybe_complete, flow.fid, epoch)

    def _maybe_complete(self, fid, epoch):
        if epoch != self._epoch:
            return  # allocation changed since this completion was projected
        flow = self._flows.get(fid)
        if flow is None:
            return
        flow.advance(self.sim.now)
        if flow.finished or flow.rate <= _EPS_BW:
            self._complete(flow)
        else:
            # float drift: reschedule the residual sliver
            self.slivers += 1
            self.sim.schedule(
                flow.remaining_bits / flow.rate, self._maybe_complete, fid, epoch
            )


# ---------------------------------------------------------------------------
# What must hold after every operation
# ---------------------------------------------------------------------------
def index_snapshot(net):
    """The standing index and the live rates, in the order they are kept."""
    return (
        [(key, list(c.flows), c.elastic) for key, c in net._index.items()],
        [f.fid for f in net._priority],
        {fid: f.rate for fid, f in net._flows.items()},
        net._epoch,
    )


def pending_projections(net):
    """Agenda entries that would still act — this epoch's ``_maybe_complete`` —
    as ``(instant, fid)``."""
    live = []
    for time, fifo in net.sim._agenda.items():
        items = list(fifo)
        for fn, args in zip(items[::2], items[1::2]):
            if fn == net._maybe_complete and args[1] == net._epoch:
                live.append((time, args[0]))
    return live


def projecting(net):
    return [f for f in net._flows.values() if not f.persistent and f.rate > _EPS_BW]


def check_engine(net):
    flows = net._flows
    # rates: bit for bit what the replaced solver gives the same flow set
    assert {fid: f.rate for fid, f in flows.items()} == reference_rates(net)

    # the ledger equals one recomputed from the flow set
    rebuilt = {}
    for f in flows.values():
        for link in f.links:
            rebuilt.setdefault(link.key, []).append(f.fid)
    assert {key: list(c.flows) for key, c in net._index.items()} == rebuilt
    for key, crossing in net._index.items():
        assert crossing.link is net.topology.link(*key)
        assert crossing.elastic == sum(not f.priority for f in crossing.flows.values())
    for f in flows.values():
        assert f._crossings == tuple(net._index[link.key] for link in f.links)
    priority = sorted(fid for fid, f in flows.items() if f.priority)
    assert [f.fid for f in net._priority] == priority
    assert sorted(f.fid for f in net._xtraffic.values()) == priority

    # measurements: the sum the replaced engine took, in its order
    for link in net.topology.links:
        expected = sum(f.rate for f in flows.values() if link in f.links)
        load = net.link_load(link.a, link.b)
        assert load == expected and type(load) is type(expected)
        assert net.link_utilization(link.a, link.b) == expected / link.capacity

    # one projection per epoch, and only where a flow can still complete
    assert len(pending_projections(net)) == (1 if projecting(net) else 0)


# ---------------------------------------------------------------------------
# Operation scripts, run on both engines in lockstep
# ---------------------------------------------------------------------------
#: the clock stays under this, so drift stays under ``_EPS_BITS`` (see above)
HORIZON = 1e4
NAMES = ("comp-a", "comp-b", "comp-c")


class Script:
    """One engine, its clock, the transfers it was handed, and its log."""

    def __init__(self, engine, topology):
        self.sim = Simulator()
        self.net = engine(self.sim, topology)
        self.handles = []
        self.log = []

    def live(self):
        return [h for h in self.handles if h.fid in self.net._flows]

    def start(self, label, src, dst, nbytes, chain):
        done, flow = self.net.start_transfer(src, dst, nbytes)
        if flow is not None:
            self.handles.append(flow)

        def on_done(event):
            self.log.append((self.sim.now, label, event.ok))
            if chain and event.ok:  # a re-solve inside the done callback
                self.start((label, "next"), dst, src, nbytes / 2, False)

        done.add_callback(on_done)

    def apply(self, index, op):
        net, sim = self.net, self.sim
        kind = op[0]
        if kind == "start":
            _, src, dst, nbytes, chain = op
            self.start(index, src, dst, nbytes, chain)
        elif kind == "cancel":
            if self.live():
                net.cancel(self.live()[op[1] % len(self.live())])
        elif kind == "cap":
            if self.live():
                self.live()[op[1] % len(self.live())].cap = op[2]
                net.recompute()
        elif kind == "xset":
            _, name, src, dst, rate = op
            existing = net._xtraffic.get(name)
            if existing is not None:
                src, dst = existing.src, existing.dst
            if src != dst:
                net.set_cross_traffic(name, src, dst, rate)
        elif kind == "xremove":
            net.set_cross_traffic(op[1], "unused", "unused", 0.0)
        elif kind == "xcancel":
            if op[1] in net._xtraffic:
                net.cancel(net._xtraffic[op[1]])
        elif kind == "capacity":
            links = net.topology.links
            links[op[1] % len(links)].capacity = op[2]
            net.recompute()
        elif kind == "wait":
            sim.run(until=sim.now + op[1])
        elif kind == "run":
            etas = [f.remaining_bits / f.rate for f in projecting(net)]
            if etas and sim.now + min(etas) < HORIZON:
                before = net.completed_transfers
                while net.completed_transfers == before:
                    assert sim.step()
        elif kind == "predict":
            before = index_snapshot(net)
            self.log.append((sim.now, index, net.predicted_bandwidth(op[1], op[2])))
            assert index_snapshot(net) == before
        else:  # pragma: no cover - a typo in the strategy
            raise AssertionError(op)


def run_lockstep(make_topology, ops):
    new = Script(FlowNetwork, make_topology())
    old = Script(PerFlowNetwork, make_topology())
    check_engine(new.net)
    for index, op in enumerate(ops):
        new.apply(index, op)
        old.apply(index, op)
        check_engine(new.net)
        assert new.sim.now == old.sim.now
        assert new.log == old.log
        assert list(new.net._flows) == list(old.net._flows)
        for fid, f in new.net._flows.items():
            twin = old.net._flows[fid]
            assert (f.rate, f.remaining_bits) == (twin.rate, twin.remaining_bits)
        assert new.net.completed_transfers == old.net.completed_transfers
        assert new.net.total_bits_delivered == old.net.total_bits_delivered
    assert old.net.slivers == 0  # else HORIZON is too generous, not a bug


def operations(nodes):
    """A few transfers to begin with, then anything; a ``start`` may chain a
    follow-up transfer from its done callback, as the servers do."""
    node = st.sampled_from(nodes)
    name = st.sampled_from(NAMES)
    small = st.integers(min_value=0, max_value=7)
    bandwidth = st.floats(min_value=1e5, max_value=1e7)
    demand = st.one_of(bandwidth, st.sampled_from([5e4, 2e7, math.inf]))
    size = st.one_of(st.just(0.0), st.floats(min_value=1e2, max_value=1e6))
    start = st.tuples(st.just("start"), node, node, size, st.booleans())
    run = st.tuples(st.just("run"))
    anything = st.one_of(
        start,
        start,
        run,
        run,
        st.tuples(st.just("cancel"), small),
        st.tuples(st.just("cap"), small, st.one_of(st.none(), bandwidth)),
        st.tuples(st.just("xset"), name, node, node, demand),
        st.tuples(st.just("xremove"), name),
        st.tuples(st.just("xcancel"), name),
        st.tuples(st.just("capacity"), small, bandwidth),
        st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=5.0)),
        st.tuples(st.just("predict"), node, node),
    )
    return st.tuples(
        st.lists(start, min_size=2, max_size=5),
        st.lists(anything, min_size=8, max_size=40),
    ).map(lambda parts: parts[0] + parts[1])


@st.composite
def tree_scripts(draw):
    """A random tree (node i hangs off an earlier node) and a script on it."""
    n = draw(st.integers(min_value=2, max_value=8))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    capacities = [draw(st.floats(min_value=1e5, max_value=1e7)) for _ in range(1, n)]
    nodes = [f"n{i}" for i in range(n)]

    def make_topology():
        topology = Topology()
        for node in nodes:
            topology.add_host(node)
        for i, (parent, capacity) in enumerate(zip(parents, capacities), start=1):
            topology.add_link(nodes[i], nodes[parent], capacity)
        return topology

    return make_topology, draw(operations(nodes))


TESTBED_HOSTS = [node.name for node in build_testbed().topology.hosts]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree_scripts())
def test_random_trees_agree_with_the_replaced_engine(script):
    make_topology, ops = script
    run_lockstep(make_topology, ops)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operations(TESTBED_HOSTS))
def test_paper_testbed_agrees_with_the_replaced_engine(ops):
    run_lockstep(lambda: build_testbed().topology, ops)


# ---------------------------------------------------------------------------
# Scripted cases
# ---------------------------------------------------------------------------
def two_pairs(capacity_ab=10e6, capacity_cd=10e6):
    """a--b and c--d: two links that share nothing."""
    topology = Topology()
    for node in "abcd":
        topology.add_host(node)
    topology.add_link("a", "b", capacity_ab)
    topology.add_link("c", "d", capacity_cd)
    return topology


def steps_to_drain(sim):
    steps = 0
    while sim.step():
        steps += 1
    return steps


class TestOneProjectionPerEpoch:
    def script(self, engine):
        sim = Simulator()
        net = engine(sim, two_pairs())
        log = []
        for label, nbytes in (("x", 3e6), ("y", 1e6), ("z", 2e6)):
            net.transfer("a", "b", nbytes).add_callback(
                lambda e, label=label: log.append((sim.now, label))
            )
        return sim, net, log

    def test_scripted_step_count(self):
        # three starts and two completions leave a flow behind them: five
        # solves with something to project, five kernel actions.  The
        # replaced engine scheduled one per flow per solve: 1+2+3 + 2+1.
        sim, net, log = self.script(FlowNetwork)
        assert steps_to_drain(sim) == 5
        old_sim, _, old_log = self.script(PerFlowNetwork)
        assert steps_to_drain(old_sim) == 9
        assert log == old_log
        assert [label for _, label in log] == ["y", "z", "x"]
        assert net.completed_transfers == 3

    def test_at_most_one_unstale_projection_is_pending(self):
        sim, net, _ = self.script(FlowNetwork)
        while True:
            assert len(pending_projections(net)) == (1 if projecting(net) else 0)
            if not sim.step():
                break
        assert not net._flows and not net._index

    def test_the_projection_is_the_earliest_flow_not_the_first(self):
        sim = Simulator()
        net = FlowNetwork(sim, two_pairs())
        net.transfer("a", "b", 5e6)
        _, quick = net.start_transfer("c", "d", 1e6)
        assert pending_projections(net) == [(0.8, quick.fid)]

    def test_starved_flows_project_nothing(self):
        sim = Simulator()
        net = FlowNetwork(sim, two_pairs())
        net.set_cross_traffic("comp", "a", "b", math.inf)
        net.transfer("a", "b", 1e6)
        assert [f.rate for f in net.flows] == [0.0, 10e6]
        assert sim.peek() is None  # nothing can complete: nothing is scheduled
        net.set_cross_traffic("comp", "a", "b", 0.0)
        sim.run()
        assert net.completed_transfers == 1 and sim.now == 0.8


class TestWhatADoneCallbackObserves:
    def test_old_shares_without_the_finished_flow_then_two_solves(self):
        sim = Simulator()
        net = FlowNetwork(sim, two_pairs())
        seen = []

        def on_done(event):
            (survivor,) = net.flows
            seen.append((net._epoch, survivor.rate, net.link_load("a", "b")))
            net.transfer("a", "b", 1e6)  # a server sends its next response here
            seen.append((net._epoch, survivor.rate, net.link_load("a", "b")))

        net.transfer("a", "b", 1e6).add_callback(on_done)
        net.transfer("a", "b", 4e6)
        assert net._epoch == 2
        sim.run(until=1.6)
        assert seen == [
            (2, 5e6, 5e6),  # the finished flow has left the index; no re-solve yet
            (3, 5e6, 10e6),  # the callback's own transfer re-solved
        ]
        assert net._epoch == 4  # and the completion re-solves after its callbacks


class TestTierOneOrder:
    def test_competitors_are_served_in_fid_order_not_arrival_order(self):
        net = FlowNetwork(Simulator(), two_pairs())
        for i in range(1, 11):
            net.set_cross_traffic(f"comp-{i}", "a", "b", 7e6)
        for i in (1, 3, 4, 5, 6, 7, 8, 9):
            net.set_cross_traffic(f"comp-{i}", "a", "b", 0.0)
        # "xtraffic-10" sorts before "xtraffic-2", which joined first
        assert [f.fid for f in net._flows.values()] == ["xtraffic-2", "xtraffic-10"]
        assert {f.fid: f.rate for f in net.flows} == {
            "xtraffic-10": 7e6,
            "xtraffic-2": 3e6,
        }
        check_engine(net)


class TestSameInstantTie:
    """Two etas that differ but land on one instant of a late clock.

    The kernel runs an instant's actions in scheduling order, so the
    replaced engine completed the flow that joined first, although the
    other's eta is the smaller one.  Choosing by eta alone would swap the
    two done callbacks.
    """

    START = float(2**20)  # ulp(START + 1) is 2.3e-10 s

    def script(self, engine):
        sim = Simulator()
        net = engine(sim, two_pairs())
        sim.run(until=self.START)
        log = []
        # 10 Mbit + 0.00002 bit, then 10 Mbit exactly: etas 1 + 2e-12 s and 1 s
        for label, nbytes in (("first", 1250000.0000025), ("second", 1250000.0)):
            src, dst = ("a", "b") if label == "first" else ("c", "d")
            net.transfer(src, dst, nbytes).add_callback(
                lambda e, label=label: log.append((sim.now, label))
            )
        return sim, net, log

    def test_first_in_flow_order_wins_the_instant(self):
        sim, net, log = self.script(FlowNetwork)
        first, second = net.flows
        eta_first = first.remaining_bits / first.rate
        eta_second = second.remaining_bits / second.rate
        assert eta_second < eta_first
        assert sim.now + eta_first == sim.now + eta_second == self.START + 1.0
        sim.run()
        old_sim, _, old_log = self.script(PerFlowNetwork)
        old_sim.run()
        due = self.START + 1.0
        assert log == old_log == [(due, "first"), (due, "second")]


class TestSliver:
    """A projected completion that float drift leaves unfinished.

    8.5e18 bytes over 7.5 Mbit/s started at t = 0.1: the projected instant
    rounds down by more than half an ulp of the size, so 8192 bits are left
    when it fires.  (1e19 bytes over 10 Mbit/s lands exactly.)  The engine
    re-solves and projects again; this is the one branch where it may
    differ from the replaced engine in the last ulp of *other* flows.
    """

    def script(self, engine, others=()):
        sim = Simulator()
        net = engine(sim, two_pairs(capacity_ab=7.5e6))
        sim.run(until=0.1)
        log = []
        done, flow = net.start_transfer("a", "b", 8.5e18)
        done.add_callback(lambda e: log.append((sim.now, "sliver", e.ok)))
        for nbytes in others:
            net.transfer("c", "d", nbytes).add_callback(
                lambda e: log.append((sim.now, "other", e.ok))
            )
        return sim, net, flow, log

    def test_sliver_is_reprojected_and_completes(self):
        sim, net, flow, log = self.script(FlowNetwork)
        assert sim.step()
        assert flow.remaining_bits == 8192.0 and flow.fid in net._flows
        assert log == [] and len(pending_projections(net)) == 1
        assert sim.step() and not sim.step()
        assert log == [(sim.now, "sliver", True)]
        assert flow.remaining_bits == 0.0
        assert net.total_bits_delivered == 8.5e18 * 8.0
        assert not net._flows and not net._index

        old_sim, old_net, _, old_log = self.script(PerFlowNetwork)
        old_sim.run()
        assert old_net.slivers == 1 and old_log == log

    def test_a_flow_alive_across_a_sliver_still_completes(self):
        sim, net, flow, log = self.script(FlowNetwork, others=(2e19,))
        other = next(f for f in net.flows if f is not flow)
        while flow.remaining_bits != 8192.0:
            assert sim.step()
        advanced_at = sim.now  # the sliver's re-solve advanced the other flow too
        assert other.remaining_bits == 2e19 * 8.0 - (advanced_at - 0.1) * 10e6
        sim.run()
        assert [(label, ok) for _, label, ok in log] == [
            ("sliver", True),
            ("other", True),
        ]
        assert net.total_bits_delivered == 8.5e18 * 8.0 + 2e19 * 8.0
        assert not net._flows and not net._index and sim.peek() is None

    def test_a_sliver_below_the_clocks_resolution_completes(self):
        # A 1e3-byte transfer splits the big ones' arithmetic; the 2e19-byte
        # flow then fires at t = 1.6e13 with 8192 bits left: 0.82 ms at
        # 10 Mbit/s, under half an ulp of the clock (1.95 ms), so projecting
        # again lands on the same instant.  The replaced engine spun there.
        sim, net, _, log = self.script(FlowNetwork, others=(2e19, 1e3))
        sim.run()
        assert [(label, ok) for _, label, ok in log] == [
            ("other", True),
            ("sliver", True),
            ("other", True),
        ]
        assert net.completed_transfers == 3
        assert net.total_bits_delivered == 1e3 * 8.0 + 8.5e18 * 8.0 + 2e19 * 8.0
        assert not net._flows and not net._index and sim.peek() is None

        old_sim, old_net, _, old_log = self.script(PerFlowNetwork, others=(2e19, 1e3))
        while len(old_log) < 2:
            assert old_sim.step()
        for _ in range(1000):
            assert old_sim.step()
        assert old_sim.now == sim.now and len(old_net._flows) == 1
        assert old_net.slivers >= 990 and len(old_log) == 2


class TestPredictedBandwidthLeavesNoTrace:
    def loaded(self):
        sim = Simulator()
        net = FlowNetwork(sim, build_testbed().topology)
        net.set_cross_traffic("comp", "BG2A", "BG3", 9e6)
        net.transfer("M_S1", "M_C3", 1e9)
        net.transfer("M_S5RQ", "M_C4", 1e9)
        return sim, net

    def test_rates_index_and_agenda_untouched(self):
        sim, net = self.loaded()
        before = index_snapshot(net)
        agenda = {time: list(fifo) for time, fifo in sim._agenda.items()}
        # M_S7 -- R5 carries no flow: the probe opens that entry and must close it
        assert ("M_S7", "R5") not in net._index
        assert net.predicted_bandwidth("M_S7", "M_C3") > 0
        assert index_snapshot(net) == before
        assert {time: list(fifo) for time, fifo in sim._agenda.items()} == agenda
        assert "__probe__" not in net._flows

    def test_also_when_the_solve_raises(self, monkeypatch):
        _, net = self.loaded()
        before = index_snapshot(net)

        def broken():
            for f in net._flows.values():
                f.rate = -1.0
            raise RuntimeError("solver fell over")

        monkeypatch.setattr(net, "_solve", broken)
        with pytest.raises(RuntimeError):
            net.predicted_bandwidth("M_S7", "M_C3")
        assert index_snapshot(net) == before
        assert "__probe__" not in net._flows


class TestNonFiniteRefusedAtTheDoor:
    """NaN used to pass ``nbytes < 0``, raise from inside the solve, and
    leave a ghost flow whose done event later *succeeded*; infinity held a
    share forever with an agenda entry at t = inf."""

    @pytest.mark.parametrize("nbytes", [math.nan, math.inf, -math.inf, -1.0])
    def test_transfer_size(self, nbytes):
        sim = Simulator()
        net = FlowNetwork(sim, two_pairs())
        net.transfer("a", "b", 1e6)
        with pytest.raises(NetworkError):
            net.transfer("a", "b", nbytes)
        assert [f.rate for f in net.flows] == [10e6]  # no ghost holds a share
        assert net._ids.peek("flow") == 1  # refused before any state was touched
        sim.run()
        assert net.completed_transfers == 1 and sim.now == 0.8

    @pytest.mark.parametrize("rate", [math.nan, -1.0])
    def test_cross_traffic_rate(self, rate):
        sim = Simulator()
        net = FlowNetwork(sim, two_pairs())
        with pytest.raises(NetworkError):
            net.set_cross_traffic("comp", "a", "b", rate)
        assert net.flows == [] and net.cross_traffic_rate("comp") == 0.0
        assert net._ids.peek("xtraffic") == 0 and sim.peek() is None

    def test_nan_update_leaves_the_competitor_as_it_was(self):
        net = FlowNetwork(Simulator(), two_pairs())
        net.set_cross_traffic("comp", "a", "b", 4e6)
        with pytest.raises(NetworkError):
            net.set_cross_traffic("comp", "a", "b", math.nan)
        assert net.cross_traffic_rate("comp") == 4e6
        assert net.link_load("a", "b") == 4e6

    def test_infinite_demand_stays_legal(self):
        net = FlowNetwork(Simulator(), two_pairs())
        net.set_cross_traffic("comp", "a", "b", math.inf)
        assert net.link_load("a", "b") == 10e6  # takes the path
        assert net.cross_traffic_rate("comp") == math.inf


class TestCancelledCompetitorFreesItsName:
    """``cancel`` used to leave the name pointing at the detached flow: a
    later ``set_cross_traffic`` set ``.cap`` on it and competed with no one."""

    def test_name_can_be_used_again(self):
        net = FlowNetwork(Simulator(), two_pairs())
        net.set_cross_traffic("comp", "a", "b", 6e6)
        assert net.cancel(net.flows[0]) is True
        assert net.cross_traffic_rate("comp") == 0.0
        assert net.link_load("a", "b") == 0

        net.set_cross_traffic("comp", "a", "b", 8e6)
        assert net.cross_traffic_rate("comp") == 8e6
        assert net.link_load("a", "b") == 8e6
        assert net.residual_bandwidth("a", "b") == 2e6
        check_engine(net)

    def test_name_can_move_to_other_endpoints(self):
        net = FlowNetwork(Simulator(), two_pairs())
        net.set_cross_traffic("comp", "a", "b", 6e6)
        net.cancel(net.flows[0])
        net.set_cross_traffic("comp", "c", "d", 3e6)  # no "endpoints changed"
        assert net.link_load("c", "d") == 3e6 and net.link_load("a", "b") == 0

    def test_a_flow_of_another_network_is_not_ours_to_cancel(self):
        ours = FlowNetwork(Simulator(), two_pairs())
        theirs = FlowNetwork(Simulator(), two_pairs())
        _, mine = ours.start_transfer("a", "b", 1e6)
        _, other = theirs.start_transfer("a", "b", 1e6)
        assert mine.fid == other.fid
        assert ours.cancel(other) is False
        assert mine.fid in ours._flows and ours.link_load("a", "b") == 10e6
