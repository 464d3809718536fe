"""Replays committed runtime intents: one loop over an intent table.

An application's translation is a table ``op -> IntentRow(cost, apply)``.
:class:`IntentTranslator` runs every table the same way: intents execute
sequentially in a simulated process; each is traced (``translate.begin``)
and charges its cost *before* taking effect (the paper's repair duration
is dominated by this communication, not by the state change itself).
What ``apply`` returns names the entities whose gauges are redeployed for
the executor's window — during a repair the framework is partially
blind, exactly as the authors describe.

:class:`Translator` is the paper's table (the client/server style
operators' intents over an :class:`EnvironmentManager`):

* ``moveClient(client, frm, to)``
* ``addServer(client, group, bw_thresh, server?)`` — ``server`` may be
  pre-resolved by the operator via ``findServer``; when present the
  translator re-validates it is still spare, otherwise re-runs the query;
* ``removeServer(server, group)``
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.app.env_manager import EnvironmentManager
from repro.errors import EnvironmentError_, TranslationError
from repro.repair.context import RuntimeIntent
from repro.runtime.app import IntentExecutor
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.translation.costs import TranslationCosts

__all__ = ["IntentRow", "IntentTranslator", "Translator", "paper_intents"]


class IntentRow(NamedTuple):
    """How one intent ``op`` reaches the running system.

    ``cost`` is the seconds charged before the op takes effect: a number,
    or a function of the intent.  ``apply(intent)`` performs the runtime
    operation and returns the names of the entities whose gauges it
    blinds (None when it blinds none).  ``untraced`` names intent args
    the ``translate.begin`` record leaves out.
    """

    cost: Union[float, Callable[[RuntimeIntent], float]]
    apply: Callable[[RuntimeIntent], Optional[Iterable[str]]]
    untraced: Tuple[str, ...] = ()


class IntentTranslator(IntentExecutor):
    """Replays committed intents one by one through an intent table.

    An ``op`` with no row raises :class:`TranslationError` when its turn
    comes.  An :class:`EnvironmentError_` from a row's ``apply`` is
    recorded in :attr:`failures`, traced ``translate.failed``, and the
    remaining intents still run (the model was already committed; the
    framework discovers runtime drift through subsequent monitoring
    rather than unwinding the model).  Each ``execute`` call is its own
    process, so concurrent repairs' translations overlap in simulated
    time.
    """

    def __init__(
        self,
        sim: Simulator,
        table: Dict[str, IntentRow],
        trace: Trace,
        gauge_manager=None,
        redeploy_window: float = 0.0,
    ):
        self.sim = sim
        self.table = dict(table)
        self.trace = trace
        self.gauge_manager = gauge_manager  # optional: .redeploy_for(entity, delay)
        self.redeploy_window = redeploy_window
        self.executed: List[RuntimeIntent] = []
        self.failures: List[str] = []

    @property
    def INTENT_OPS(self) -> frozenset:
        return frozenset(self.table)

    def execute(self, intents: Iterable[RuntimeIntent], on_done=None) -> Process:
        """Run all intents in order; invoke ``on_done`` when finished."""
        return Process(self.sim, self._run(list(intents), on_done), name="translator")

    def estimate_duration(self, intents: Iterable[RuntimeIntent]) -> float:
        return sum(self._cost(self._row(intent), intent) for intent in intents)

    def _row(self, intent: RuntimeIntent) -> IntentRow:
        row = self.table.get(intent.op)
        if row is None:
            raise TranslationError(f"no runtime mapping for intent {intent.op!r}")
        return row

    @staticmethod
    def _cost(row: IntentRow, intent: RuntimeIntent) -> float:
        return row.cost(intent) if callable(row.cost) else row.cost

    def _run(self, intents: List[RuntimeIntent], on_done):
        for intent in intents:
            row = self._row(intent)
            cost = self._cost(row, intent)
            args = intent.args
            if row.untraced:
                args = {k: v for k, v in args.items() if k not in row.untraced}
            self.trace.emit(
                self.sim.now, "translate.begin", op=intent.op, cost=cost, **args
            )
            if cost > 0:
                yield self.sim.timeout(cost)
            try:
                blinded = row.apply(intent)
            except EnvironmentError_ as exc:
                self.failures.append(f"{intent}: {exc}")
                self.trace.emit(
                    self.sim.now, "translate.failed", op=intent.op, error=str(exc)
                )
                continue
            if blinded and self.gauge_manager is not None:
                for entity in blinded:
                    self.gauge_manager.redeploy_for(entity, self.redeploy_window)
            self.executed.append(intent)
        if on_done is not None:
            on_done()


def paper_intents(
    env: EnvironmentManager, costs: TranslationCosts
) -> Dict[str, IntentRow]:
    """The client/server style's intent table (§5.3's cost model)."""

    def move_client(intent):
        env.move_client(intent.args["client"], intent.args["to"])
        return (intent.args["client"],)

    def add_server(intent):
        args = intent.args
        server = args.get("server")
        if server is not None and any(s.name == server for s in env.app.spare_servers):
            env.connect_server(server, args["group"])
            env.activate_server(server)
        else:
            server = env.recruit_server(
                args["client"], args["group"], args.get("bw_thresh", 0.0)
            )
        return (server,)

    def remove_server(intent):
        env.deactivate_server(intent.args["server"])
        return (intent.args["server"],)

    return {
        "moveClient": IntentRow(costs.move_client_cost(), move_client),
        "addServer": IntentRow(
            costs.add_server_cost(), add_server, untraced=("bw_thresh",)
        ),
        "removeServer": IntentRow(costs.remove_server_cost(), remove_server),
    }


class Translator(IntentTranslator):
    """The paper's translator: :func:`paper_intents` over ``env``.

    Affected gauges go blind for a gauge teardown plus a setup.
    """

    def __init__(
        self,
        env: EnvironmentManager,
        costs: Optional[TranslationCosts] = None,
        gauge_manager=None,
        trace: Optional[Trace] = None,
    ):
        self.env = env
        self.costs = costs = costs if costs is not None else TranslationCosts()
        super().__init__(
            env.sim,
            paper_intents(env, costs),
            trace if trace is not None else env.trace,
            gauge_manager,
            costs.effective_gauge_destroy + costs.effective_gauge_create,
        )
