"""The six workloads.  Each builds real runtimes through the public
API, drives them with inputs generated from the seed before any clock
starts, and returns an :class:`Outcome`.

Every workload times a repeated **cycle** and counts the telemetry
samples one cycle carries; what a cycle is differs per workload and is
stated in ``WORKLOADS`` (and in README.md):

=================== ====================================================
``steady_1k``       one control period: 5 x 2N ``probe.ingest`` +
                    ``sim.run`` to the period's end
``storm_1k``        the same, with a rolling cohort being repaired
``storm_1k_sharded`` the same input on a 4-shard plane
``react_1k``        first violating ``ingest`` -> K-th effector call
``paper_cs``        one fresh adapted ``client_server`` run
``live_ingest``     reaction: violating burst due -> effector called
                    (open loop); throughput cycle: 16 chunks of 1024
                    samples drained (closed-loop flood)
=================== ====================================================

Horizons are a fixed function of ``--seconds`` (see :class:`Scale`), so
the work — and with it ``attempted`` and every exact counter — repeats
exactly per seed.  A run that overruns ``OVERRUN x seconds`` cuts its
horizon short and says so (``truncated``).
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from e2e import oracle
from e2e.plane import (
    BATCH,
    BUSY_LOAD,
    IDLE_LOAD,
    LIVE_PLANE,
    MIN_SIZE,
    SIM_PLANE,
    Plane,
    PlaneConfig,
    Telemetry,
    build_spec,
    BenchApp,
    build_plane,
)
from repro import api
from repro.realtime import RealtimeDriver
from repro.sim.kernel import Simulator

#: pools repaired together in one react_1k round
REACT_K = 10
#: storm cohorts: each period one cohort (1/50 of the pools) goes hot
STORM_COHORTS = 50
#: healthy periods before the clock starts / after the last hot cohort
WARMUP_PERIODS = 2
CLOSING_PERIODS = 4
#: a run that takes this many times its nominal seconds is cut short
OVERRUN = 2.5
#: builds timed for ``setup_s`` (the median is reported)
SETUP_BUILDS = 5

LIVE_RATE = 5000.0  # open-loop background samples/s
LIVE_COHORT = 10  # pools going hot per gauge tick
LIVE_CHUNK = 1024  # flood samples between two drain sentinels
LIVE_OUTSTANDING = 2  # chunks in flight
#: chunks per timed flood cycle: long enough that both threads' work
#: (they share the interpreter lock) is inside every cycle
LIVE_GROUP = 16
ON_TIME_LAG = 0.100  # s behind the clock an effector call may run


@dataclass(frozen=True)
class Scale:
    """How much work a run does, as a fixed function of the arguments."""

    seconds: float
    quick: bool = False

    def pools(self, config: PlaneConfig) -> PlaneConfig:
        if not self.quick:
            return config
        return dataclasses.replace(config, pools=max(20, config.pools // 20))

    def count(self, per_second: float, quick: int = 6) -> int:
        """Cycles for a workload that completes ``per_second`` of them per
        second on the sizing box (2 cores, see README)."""
        return quick if self.quick else max(quick, round(self.seconds * per_second))


@dataclass
class Outcome:
    cycles_ms: List[float]
    samples_per_cycle: float
    verdict: oracle.Verdict
    digest: str
    setup_s: List[float]
    counters: Dict[str, float]
    #: live_ingest only: the flood's chunk-drain cycles
    flood_cycles_ms: Optional[List[float]] = None
    flood_samples_per_cycle: float = 0.0
    #: diagnostics that are not spans or stats() counters
    extra: Dict[str, float] = field(default_factory=dict)
    truncated: bool = False
    #: perf_counter_ns when the plane's work ended and the oracle's began
    finished_ns: int = 0


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------
def _timed_builds(build: Callable[[], object]):
    """Build ``SETUP_BUILDS`` times, keep the last; returns (it, seconds)."""
    built, seconds = None, []
    for _ in range(SETUP_BUILDS):
        built = None
        gc.collect()
        start = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - start)
    return built, seconds


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _counters(stats, history, executed: int) -> Dict[str, float]:
    """The per-layer counters, from public ``stats()`` and the history."""
    repairs = stats.repairs
    return {
        "bus.probe_published": stats.bus["probe_published"],
        "bus.gauge_published": stats.bus["gauge_published"],
        "telemetry.samples": stats.telemetry["samples"],
        "telemetry.batches": stats.telemetry["batches"],
        "telemetry.wakeups": stats.telemetry["wakeups"],
        "telemetry.suppressed_reports": stats.telemetry["suppressed_reports"],
        "constraints.evaluations": stats.constraints["evaluations"],
        "constraints.scopes_evaluated": stats.constraints["scopes_evaluated"],
        "constraints.scopes_reused": stats.constraints["scopes_reused"],
        "repairs.committed": len(history.committed),
        "repairs.aborted": len(history.aborted),
        "repairs.conflicts": repairs.get("conflicts", 0),
        "repairs.peak_inflight": repairs.get("peak_inflight", 0),
        "repairs.cross_commits": repairs.get("cross_commits", 0),
        "repairs.deferrals": repairs.get("deferrals", 0),
        "sched.executed": executed,
    }


class SimPlane:
    """A plane on the simulation kernel, fed one control period at a time.

    A period starts half a sample period after a gauge tick and carries
    one sample per probe per logical second, so the period's last
    ``sim.run`` contains the flush deliveries, the next gauge tick, its
    2N reports and every repair they trigger: an effector call lands in
    the period whose samples caused it.
    """

    def __init__(self, config: PlaneConfig, seed: int, feeds: int):
        self.config = config
        self.telemetry = Telemetry(seed, config.pools, feeds)
        self.plane, self.setup_s = _timed_builds(self._build)
        self.sim = self.plane.runtime.sim
        self.app = self.plane.app
        # bound after any tracer wrapped the classes, so spans see them
        self._latency = [p.ingest for p in self.plane.latency_probes]
        self._utilization = [p.ingest for p in self.plane.utilization_probes]
        self.samples = 0
        self.ingest_errors = 0
        self.feeds = 0
        self.sim.run(until=config.sample_period / 2)

    def _build(self) -> Plane:
        return build_plane(Simulator(), self.config)

    @property
    def now(self) -> float:
        return self.sim.now

    def ingest(self, pools, latency, utilization) -> None:
        """One sample per probe of ``pools`` at the current instant."""
        lat_in, util_in = self._latency, self._utilization
        for pool in pools:
            try:
                lat_in[pool](latency[pool])
                util_in[pool](utilization[pool])
            except Exception:  # noqa: BLE001 - counted as failed operations
                self.ingest_errors += 2
        self.samples += 2 * len(pools)

    def period(self, pools=None) -> int:
        """Feed one period to ``pools`` (default all); returns wall ns."""
        config = self.config
        latency, utilization = self.telemetry.rows(self.app, self.feeds)
        self.feeds += 1
        if pools is None:
            pools = range(config.pools)
        # absolute tick times: no drift from repeated float addition
        first = round((self.sim.now - config.sample_period / 2) / config.sample_period)
        start = time.perf_counter_ns()
        for tick in range(BATCH):
            self.ingest(pools, latency[tick], utilization[tick])
            self.sim.run(until=(first + tick + 1.5) * config.sample_period)
        return time.perf_counter_ns() - start

    def finish(self, expected, cycles, samples_per_cycle, deadline) -> Outcome:
        """Stop the plane, apply the oracle, collect the counters."""
        self.plane.runtime.stop()
        finished_ns = time.perf_counter_ns()
        verdict = oracle.check_plane(
            self.plane, expected, self.samples, self.ingest_errors
        )
        stats = self.plane.runtime.stats()
        return Outcome(
            finished_ns=finished_ns,
            cycles_ms=cycles,
            samples_per_cycle=samples_per_cycle,
            verdict=verdict,
            digest=oracle.plane_digest(self.plane),
            setup_s=self.setup_s,
            counters=_counters(stats, self.plane.runtime.history, executed=0),
            truncated=deadline.hit,
        )


class _Deadline:
    def __init__(self, seconds: float):
        self.at = time.perf_counter() + OVERRUN * seconds
        self.hit = False

    def passed(self) -> bool:
        if time.perf_counter() > self.at:
            self.hit = True
        return self.hit


# ---------------------------------------------------------------------------
# steady_1k / storm_1k / storm_1k_sharded
# ---------------------------------------------------------------------------
class StormSchedule:
    """Period ``q``'s cohort goes hot; two periods later it idles (so it
    is shrunk back); one more and it is busy again.  Membership is a
    seeded permutation; the schedule itself depends only on ``q``."""

    def __init__(self, order: np.ndarray, config: PlaneConfig):
        self.cohorts = np.array_split(order, STORM_COHORTS)
        self.deadline = config.repair_deadline()
        self.hot_periods = 0

    def _cohort(self, q: int) -> np.ndarray:
        return self.cohorts[q % STORM_COHORTS]

    def apply(self, app: BenchApp, q: int, now: float, new_hot: bool):
        expected = []
        if new_hot:
            self.hot_periods = q + 1
            app.demand[self._cohort(q)] = MIN_SIZE + 1
            expected += [
                oracle.ExpectedRepair(int(p), True, now, now + self.deadline)
                for p in self._cohort(q)
            ]
        if 0 <= q - 2 < self.hot_periods:
            cold = self._cohort(q - 2)
            app.demand[cold] = MIN_SIZE
            app.load[cold] = IDLE_LOAD
            expected += [
                oracle.ExpectedRepair(int(p), False, now, now + self.deadline)
                for p in cold
            ]
        if 0 <= q - 3 < self.hot_periods:
            app.load[self._cohort(q - 3)] = BUSY_LOAD
        return expected


def _run_periods(seed: int, scale: Scale, per_second: float, storm: bool, shards: int):
    config = dataclasses.replace(scale.pools(SIM_PLANE), shards=shards)
    periods = scale.count(per_second)
    run = SimPlane(config, seed, WARMUP_PERIODS + periods + CLOSING_PERIODS)
    schedule = StormSchedule(run.telemetry.order, config)
    deadline = _Deadline(scale.seconds)
    expected: List[oracle.ExpectedRepair] = []
    for _ in range(WARMUP_PERIODS):
        run.period()
    cycles = []
    for q in range(periods):
        if deadline.passed():
            break
        if storm:
            expected += schedule.apply(run.app, q, run.now, new_hot=True)
        cycles.append(run.period() / 1e6)
    for q in range(len(cycles), len(cycles) + CLOSING_PERIODS):
        if storm:
            expected += schedule.apply(run.app, q, run.now, new_hot=False)
        run.period()
    return run.finish(expected, cycles, 2.0 * BATCH * config.pools, deadline)


def steady_1k(seed: int, scale: Scale) -> Outcome:
    return _run_periods(seed, scale, per_second=10.0, storm=False, shards=0)


def storm_1k(seed: int, scale: Scale) -> Outcome:
    return _run_periods(seed, scale, per_second=5.0, storm=True, shards=0)


def storm_1k_sharded(seed: int, scale: Scale) -> Outcome:
    return _run_periods(seed, scale, per_second=5.0, storm=True, shards=4)


# ---------------------------------------------------------------------------
# react_1k
# ---------------------------------------------------------------------------
def react_1k(seed: int, scale: Scale) -> Outcome:
    config = scale.pools(SIM_PLANE)
    rounds = scale.count(5.5)
    run = SimPlane(config, seed, WARMUP_PERIODS + 2 * rounds)
    order = run.telemetry.order
    calls = run.plane.effector.calls
    deadline = _Deadline(scale.seconds)
    expected: List[oracle.ExpectedRepair] = []
    for _ in range(WARMUP_PERIODS):  # every gauge now has a value to report
        run.period()
    cycles = []
    for r in range(rounds):
        if deadline.passed():
            break
        pools = [int(order[(r * REACT_K + j) % config.pools]) for j in range(REACT_K)]
        run.app.demand[pools] = run.app.size[pools] + 1
        now, due = run.now, run.now + config.repair_deadline()
        expected += [oracle.ExpectedRepair(p, True, now, due) for p in pools]
        latency, utilization = run.telemetry.rows(run.app, run.feeds)
        run.feeds += 1
        target = len(calls) + REACT_K
        step = run.sim.step
        start = time.perf_counter_ns()
        for tick in range(BATCH):  # one violating batch, at this instant
            run.ingest(pools, latency[tick], utilization[tick])
        while len(calls) < target and run.now <= due and step():
            pass
        cycles.append((time.perf_counter_ns() - start) / 1e6)
        # not timed: finish the period, then one healthy period for these
        # pools (they report their new size) so their wake gates un-cross
        run.sim.run(until=now + config.gauge_period)
        run.period(pools)
    run.sim.run(until=run.now + config.gauge_period)
    return run.finish(expected, cycles, 2.0 * BATCH * REACT_K, deadline)


# ---------------------------------------------------------------------------
# paper_cs
# ---------------------------------------------------------------------------
#: the paper's experiment is pinned to its own seed (HPDC'02): the run, its
#: fingerprint and its digest are the same for every ``--seed``
PAPER_SEED = 2002


def _paper_config(scale: Scale, adaptation: bool):
    return api.make_config(
        "client_server",
        seed=PAPER_SEED,
        horizon=120.0 if scale.quick else 1800.0,
        adaptation=adaptation,
    )


def paper_cs(seed: int, scale: Scale) -> Outcome:
    """The paper's own experiment on the pinned default path."""
    # 3 at the default 15 s; the traced invocation's quarter horizon gets 1
    repeats = 2 if scale.quick else max(1, round(scale.seconds / 5.5))
    config = _paper_config(scale, adaptation=True)
    builder = api.scenario_entry("client_server").builder
    _, setup_s = _timed_builds(lambda: builder(config))
    cycles, digests, result = [], [], None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = time.perf_counter_ns()
        result = api.run(config, fresh=True)
        cycles.append((time.perf_counter_ns() - start) / 1e6)
        digests.append(oracle.run_digest(result))
    api.clear_cache()
    return Outcome(
        finished_ns=time.perf_counter_ns(),
        cycles_ms=cycles,
        samples_per_cycle=float(result.stats.telemetry["samples"]),
        verdict=oracle.check_repeats(digests),
        digest=digests[0],
        setup_s=setup_s,
        counters=_counters(result.stats, result.history, executed=0),
    )


def paper_cs_control(scale: Scale) -> float:
    """Simulated seconds per wall second of the *control* run: the
    application + network floor no control-plane change can go under."""
    config = _paper_config(scale, adaptation=False)
    start = time.perf_counter()
    api.run(config, fresh=True)
    elapsed = time.perf_counter() - start
    api.clear_cache()
    return config.horizon / elapsed


# ---------------------------------------------------------------------------
# live_ingest
# ---------------------------------------------------------------------------
class _LiveEvent(NamedTuple):
    due: float  # s after the open loop starts
    kind: str  # "hot" | "idle" | "busy"
    pools: List[int]


def live_ingest(seed: int, scale: Scale) -> Outcome:
    config = scale.pools(LIVE_PLANE)
    pools = config.pools
    cohort = max(1, LIVE_COHORT * pools // LIVE_PLANE.pools)
    hot_ticks = scale.count(1.25, quick=4)
    groups = 2 if scale.quick else round(scale.seconds * 1.5)
    flood = (groups * LIVE_GROUP + 1) * LIVE_CHUNK
    period = config.gauge_period
    idle_after, busy_after = 2 * period, 10 * period
    shrink_allowance = 8 * period

    # -- inputs, all generated before the clock starts ---------------------
    rng = np.random.default_rng([seed, pools, hot_ticks])
    order = rng.permutation(pools)
    first_hot = 1.0  # s after start: every probe batch has flushed once
    events: List[_LiveEvent] = []
    for tick in range(hot_ticks):
        # 0.15 s into a gauge period: the reaction is then bounded by the
        # rest of the period plus deliveries, not by the schedule's phase
        due = first_hot + tick * period + 0.6 * period
        members = [int(order[(tick * cohort + j) % pools]) for j in range(cohort)]
        events.append(_LiveEvent(due, "hot", members))
        events.append(_LiveEvent(due + idle_after, "idle", members))
        events.append(_LiveEvent(due + busy_after, "busy", members))
    events.sort(key=lambda e: e.due)
    open_loop_s = events[-1].due + 2 * period
    background = int(open_loop_s * LIVE_RATE)
    noise = rng.uniform(0.95, 1.0, background + flood).tolist()
    burst_noise = rng.uniform(0.95, 1.05, BATCH).tolist()

    # -- build: the wall clock starts with the driver ----------------------
    driver, setup_s = None, []
    for _ in range(SETUP_BUILDS):
        if driver is not None:
            driver.stop()
        driver = None
        gc.collect()
        start = time.perf_counter()
        driver = RealtimeDriver(BenchApp(config), build_spec(config))
        driver.start()
        setup_s.append(time.perf_counter() - start)
    app: BenchApp = driver.app
    tenants = app.tenants
    plane = Plane(driver.runtime, app)
    clock = driver.clock
    ingest = driver.ingest
    # perf_counter value at clock.elapsed() == 0, to place due times
    origin_ns = time.perf_counter_ns() - int(clock.elapsed() * 1e9)
    # on the gauge-tick grid, with the build's catch-up left behind
    start_at = (int(clock.elapsed() / period) + 2) * period

    sent = errors = 0
    late_ms: List[float] = []
    expected: List[oracle.ExpectedRepair] = []

    def send(kind: str, pool: int, value: float) -> None:
        nonlocal sent, errors
        sent += 1
        try:
            ingest(kind, tenants[pool], value)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            errors += 1

    def fire(event: _LiveEvent) -> None:
        at = start_at + event.due
        if event.kind == "hot":
            app.demand[event.pools] = MIN_SIZE + 1
            for pool in event.pools:
                expected.append(
                    oracle.ExpectedRepair(
                        pool, True, at, at + config.repair_deadline()
                    )
                )
                hot = float(app.latency()[pool])
                for k in range(BATCH):  # the violating burst
                    send("latency", pool, hot * burst_noise[k])
        elif event.kind == "idle":
            app.demand[event.pools] = MIN_SIZE
            app.load[event.pools] = IDLE_LOAD
            expected.extend(
                oracle.ExpectedRepair(pool, False, at, at + shrink_allowance)
                for pool in event.pools
            )
        else:
            app.load[event.pools] = BUSY_LOAD

    # -- phase A: open loop at LIVE_RATE with rolling hot cohorts ----------
    pending = iter(events)
    upcoming = next(pending, None)
    k = 0
    while k < background:
        now = clock.elapsed() - start_at
        while upcoming is not None and upcoming.due <= now:
            fire(upcoming)
            upcoming = next(pending, None)
        due_count = min(background, int(now * LIVE_RATE) + 1) if now >= 0 else 0
        if k < due_count:
            latency, utilization = app.latency(), app.utilization()
            while k < due_count:
                pool = (k // 2) % pools
                if k % 2:
                    send("utilization", pool, float(utilization[pool]) * noise[k])
                else:
                    send("latency", pool, float(latency[pool]) * noise[k])
                late_ms.append((now - k / LIVE_RATE) * 1e3)
                k += 1
        time.sleep(0.001)
    while upcoming is not None:  # events due in the last millisecond
        fire(upcoming)
        upcoming = next(pending, None)
    scheduler = driver.scheduler
    lag_after_open_loop = scheduler.max_lag

    # -- phase B: closed-loop flood, LIVE_OUTSTANDING chunks in flight -----
    slots = threading.Semaphore(LIVE_OUTSTANDING)
    drained_ns: List[int] = []

    def drained() -> None:
        drained_ns.append(time.perf_counter_ns())
        slots.release()

    latency = app.latency().tolist()
    utilization = app.utilization().tolist()
    flood_start = time.perf_counter_ns()
    for chunk in range(flood // LIVE_CHUNK):
        if not slots.acquire(timeout=60):
            raise RuntimeError("live_ingest: the scheduler stopped draining")
        for j in range(chunk * LIVE_CHUNK, (chunk + 1) * LIVE_CHUNK):
            pool = (j // 2) % pools
            scale_by = noise[background + j]
            if j % 2:
                send("utilization", pool, utilization[pool] * scale_by)
            else:
                send("latency", pool, latency[pool] * scale_by)
        scheduler.call_soon_threadsafe(drained)
    for _ in range(LIVE_OUTSTANDING):
        if not slots.acquire(timeout=60):
            raise RuntimeError("live_ingest: the flood never drained")
    flood_ms = (drained_ns[-1] - flood_start) / 1e6
    executed = scheduler.executed
    driver.stop()
    finished_ns = time.perf_counter_ns()

    # -- verdict and metrics ----------------------------------------------
    verdict = oracle.check_plane(plane, expected, sent, errors)
    reactions, on_time = [], 0
    grows = {}
    for call in plane.effector.calls:
        if call.lag <= ON_TIME_LAG:
            on_time += 1
        if call.grew:
            grows.setdefault(call.pool, []).append(call)
    for want in expected:
        if want.grew and grows.get(want.pool):
            call = grows[want.pool].pop(0)
            due_ns = origin_ns + int(want.trigger * 1e9)
            reactions.append((call.wall_ns - due_ns) / 1e6)
    lags_ms = [call.lag * 1e3 for call in plane.effector.calls]
    group_ms = np.diff(np.array(drained_ns[::LIVE_GROUP], dtype=np.int64)) / 1e6
    return Outcome(
        finished_ns=finished_ns,
        cycles_ms=reactions,
        samples_per_cycle=float(BATCH),
        verdict=verdict,
        digest=oracle.plane_digest(plane, logical=False),
        setup_s=setup_s,
        counters=_counters(driver.stats(), driver.history, executed),
        flood_cycles_ms=group_ms.tolist(),
        flood_samples_per_cycle=float(LIVE_GROUP * LIVE_CHUNK),
        extra={
            "live.on_time_share": on_time / len(expected) if expected else 0.0,
            "live.flood_samples_per_s": flood / (flood_ms / 1e3),
            "sched.max_lag_ms": lag_after_open_loop * 1e3,
            "sched.effector_lag_ms_p50": percentile(lags_ms, 50),
            "sched.effector_lag_ms_p90": percentile(lags_ms, 90),
            "gen.late_ms_p50": percentile(late_ms, 50),
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Scale], Outcome]
    why: str
    #: inputs, schedule and every counter repeat exactly per seed
    deterministic: bool = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "steady_1k",
            steady_1k,
            "1000 healthy pools flat-out on the sim kernel: ingest, bus, gauges "
            "and model writes do all the work; checker and engine do none",
        ),
        Workload(
            "storm_1k",
            storm_1k,
            "same ingest volume while a rolling 2 % cohort is grown then shrunk: "
            "checker, engine admission, DSL strategy/tactic and effector are busy",
        ),
        Workload(
            "storm_1k_sharded",
            storm_1k_sharded,
            "the storm_1k input on a 4-shard plane (ShardedEventBus, "
            "ShardCoordinator): guards unsharded == sharded build paths",
        ),
        Workload(
            "react_1k",
            react_1k,
            "quiescent plane, 10 pools violate at once: wall time from the first "
            "violating ingest to the 10th effector call; no probe-batch bulk",
        ),
        Workload(
            "paper_cs",
            paper_cs,
            "the paper's adapted client_server run on the pinned scalar path; "
            "the app + network simulation bounds any control-plane gain",
        ),
        Workload(
            "live_ingest",
            live_ingest,
            "RealtimeDriver on the wall clock, 2 threads: open loop at 5000 "
            "samples/s with hot cohorts, then a bounded closed-loop flood",
            deterministic=False,
        ),
    )
}
