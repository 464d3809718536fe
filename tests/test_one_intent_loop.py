"""Every translator is an intent table over one replay loop.

Each registered scenario and the live demo declare ``op -> IntentRow(cost,
apply)``; :class:`~repro.translation.IntentTranslator` owns the rest.
These check, table by table, that ``INTENT_OPS`` is the table's keys
(what ``repro lint``'s WIR403 reads), that an op with no row raises
``TranslationError`` at its turn after the intents before it took
effect, and that an ``EnvironmentError_`` from any row is recorded and
traced while the remaining intents still run and ``on_done`` fires.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import EnvironmentError_, TranslationError
from repro.experiment import RunConfig, scenario_builder, scenario_names
from repro.realtime.demo import LivePoolManagedApplication
from repro.repair.context import RuntimeIntent
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.translation import IntentRow, IntentTranslator

SRC = Path(__file__).parent.parent / "src" / "repro"

#: per scenario, one intent its table applies cleanly on the built app
SAMPLES = {
    "client_server": lambda app: RuntimeIntent(
        "moveClient", {"client": "C1", "frm": "SG1", "to": "SG2"}
    ),
    "grid_site": lambda app: RuntimeIntent("drainSite", {"site": "site0"}),
    "map_reduce": lambda app: RuntimeIntent(
        "stealWork", {"reducer": "R0", "dest": "R1"}
    ),
    "master_worker": lambda app: RuntimeIntent(
        "addWorkers", {"pool": "pool", "size": app.pool_size + 1}
    ),
    "multi_tenant": lambda app: RuntimeIntent(
        "resizeTenant", {"tenant": "T0", "size": 5, "grew": True}
    ),
    "multi_tenant_sharded": lambda app: RuntimeIntent(
        "resizeTenant", {"tenant": "T0", "size": 5, "grew": True}
    ),
    "pipeline": lambda app: RuntimeIntent(
        "widenStage", {"stage": "transform", "width": 3}
    ),
    "live_demo": lambda app: RuntimeIntent("addWorkers", {"size": 3}),
}
TABLES = sorted(scenario_names()) + ["live_demo"]


def built(name):
    """``(executor, app)`` as the runtime wires them, unwrapped from any
    fault-plane decorator."""
    if name == "live_demo":
        app = SimpleNamespace(resizes=[])
        app.request_resize = app.resizes.append
        runtime = SimpleNamespace(sim=Simulator(), trace=Trace())
        managed = LivePoolManagedApplication(app, min_workers=1)
        return managed.intent_executor(runtime), app
    experiment = scenario_builder(name)(RunConfig.adapted(name))
    executor = experiment.runtime.translator
    while hasattr(executor, "inner"):
        executor = executor.inner
    return executor, experiment.app


def begun(executor):
    return [r.data["op"] for r in executor.trace.select("translate.begin")]


def test_every_registered_scenario_has_a_sample():
    assert set(scenario_names()) <= set(SAMPLES)


def test_one_replay_loop_under_src():
    loops = [p for p in SRC.rglob("*.py") if '"translate.begin"' in p.read_text()]
    assert [p.relative_to(SRC).as_posix() for p in loops] == [
        "translation/translator.py"
    ]


@pytest.mark.parametrize("name", TABLES)
class TestEveryTable:
    def test_intent_ops_are_the_tables_keys(self, name):
        executor, _ = built(name)
        assert isinstance(executor, IntentTranslator)
        assert executor.table
        assert executor.INTENT_OPS == set(executor.table)

    def test_an_unknown_op_raises_after_the_earlier_intents_applied(self, name):
        executor, app = built(name)
        sample = SAMPLES[name](app)
        executor.execute([sample, RuntimeIntent("teleport", {})])
        with pytest.raises(TranslationError, match="teleport"):
            executor.sim.run(until=executor.estimate_duration([sample]) + 1.0)
        assert executor.executed == [sample]
        assert begun(executor) == [sample.op]

    def test_an_environment_error_from_any_row_is_recorded(self, name):
        executor, app = built(name)

        def flaky(apply, intent):
            if intent.args.get("fail"):
                raise EnvironmentError_(f"{intent.op} refused")
            return apply(intent)

        table = {
            op: row._replace(apply=lambda i, a=row.apply: flaky(a, i))
            for op, row in executor.table.items()
        }
        trace = Trace()
        loop = IntentTranslator(executor.sim, table, trace)
        failing = [RuntimeIntent(op, {"fail": True}) for op in sorted(table)]
        sample = SAMPLES[name](app)
        intents = failing + [sample]
        done = []
        loop.execute(intents, on_done=lambda: done.append(loop.sim.now))
        start = loop.sim.now
        loop.sim.run(until=start + loop.estimate_duration(intents) + 1.0)
        assert done == [pytest.approx(start + loop.estimate_duration(intents))]
        assert loop.executed == [sample]
        assert len(loop.failures) == len(failing)
        failed = [r.data["op"] for r in trace.select("translate.failed")]
        assert failed == sorted(table)
        assert [r.data["op"] for r in trace.select("translate.begin")] == [
            i.op for i in intents
        ]


class TestTheLoop:
    def table(self, calls):
        def apply(intent):
            calls.append(intent.op)
            return [intent.args["entity"]] if "entity" in intent.args else None

        return {
            "slow": IntentRow(2.0, apply, untraced=("secret",)),
            "free": IntentRow(0.0, apply),
            "sized": IntentRow(lambda i: float(i.args["n"]), apply),
        }

    def test_costs_are_charged_first_in_order(self):
        sim, calls, done = Simulator(), [], []
        loop = IntentTranslator(sim, self.table(calls), Trace())
        intents = [
            RuntimeIntent("slow", {"secret": 1}),
            RuntimeIntent("free", {}),
            RuntimeIntent("sized", {"n": 3}),
        ]
        assert loop.estimate_duration(intents) == 5.0
        loop.execute(intents, on_done=lambda: done.append(sim.now))
        sim.run(until=1.0)
        assert calls == []
        sim.run()
        assert calls == ["slow", "free", "sized"] and done == [5.0]
        records = loop.trace.select("translate.begin")
        assert [(r.time, r.data["cost"]) for r in records] == [
            (0.0, 2.0),
            (2.0, 0.0),
            (2.0, 3.0),
        ]
        assert "secret" not in records[0].data

    def test_apply_names_the_entities_whose_gauges_go_blind(self):
        sim, calls, blinded = Simulator(), [], []
        gauges = SimpleNamespace(redeploy_for=lambda e, w: blinded.append((e, w)))
        loop = IntentTranslator(
            sim, self.table(calls), Trace(), gauges, redeploy_window=7.0
        )
        loop.execute(
            [RuntimeIntent("free", {"entity": "pool"}), RuntimeIntent("free", {})]
        )
        sim.run()
        assert blinded == [("pool", 7.0)]

    def test_estimate_duration_rejects_an_unknown_op(self):
        loop = IntentTranslator(Simulator(), {}, Trace())
        with pytest.raises(TranslationError):
            loop.estimate_duration([RuntimeIntent("teleport", {})])


def test_a_refused_pool_resize_no_longer_ends_the_run():
    """The task farm refuses a pool below one worker; the refusal is
    recorded and the repair's next intent still runs."""
    executor, app = built("master_worker")
    size = app.pool_size
    executor.execute(
        [
            RuntimeIntent("removeWorkers", {"pool": "pool", "size": 0}),
            RuntimeIntent("addWorkers", {"pool": "pool", "size": size + 1}),
        ]
    )
    executor.sim.run(until=executor.sim.now + 100.0)
    assert app.pool_size == size + 1
    [failure] = executor.failures
    assert "at least one worker" in failure
