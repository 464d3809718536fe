"""What counts as a failed operation — the rules, in one place.

A plane workload *attempts* three kinds of operation: every telemetry
sample it sends, every repair its input schedule makes necessary, and
every pool's final consistency.  An operation **failed** when

* a sample is not accounted for in ``stats().telemetry["samples"]``
  after the drain, or its ``ingest`` raised;
* an expected repair has no effector call of the right direction for
  its pool between its violating sample and its logical-time deadline;
* an effector call is not backed by a committed ``RepairRecord``
  intent, or answers no expected repair at all;
* a pool's final model ``size`` differs from its last effector size;
* an invariant is still violated after the closing healthy phase.

``paper_cs`` has its own rule (:func:`check_repeats`): a behaviour
digest over issued / completed / dropped plus the repair history must
not differ between fresh repeats of the same configuration.

The count of attempted operations depends only on the input schedule,
never on what the plane did, so it repeats exactly per seed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence

__all__ = [
    "ExpectedRepair",
    "Verdict",
    "check_plane",
    "check_repeats",
    "plane_digest",
    "run_digest",
]

#: failure messages kept for the report (the count is never truncated)
_KEEP = 8


class ExpectedRepair(NamedTuple):
    pool: int
    grew: bool
    #: logical time of the sample that makes the repair necessary
    trigger: float
    #: latest logical time the effector may be called
    deadline: float


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < _KEEP:
            self.failures.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_plane(
    plane,
    expected: Sequence[ExpectedRepair],
    samples_sent: int,
    ingest_errors: int = 0,
) -> Verdict:
    """Apply the plane rules to a drained plane (see module doc)."""
    runtime = plane.runtime
    calls = plane.effector.calls
    verdict = Verdict(attempted=samples_sent + len(expected) + len(plane.app.size))

    accounted = int(runtime.stats().telemetry["samples"])
    if ingest_errors:
        verdict.fail(f"{ingest_errors} ingest call(s) raised", ingest_errors)
    if accounted < samples_sent - ingest_errors:
        missing = samples_sent - ingest_errors - accounted
        verdict.fail(f"{missing} sample(s) sent but not accounted", missing)

    # every effector call must replay one committed intent
    committed = Counter(
        (intent.args["tenant"], int(intent.args["size"]), bool(intent.args["grew"]))
        for record in runtime.history.committed
        for intent in record.intents
    )
    for call in calls:
        key = (f"T{call.pool}", call.size, call.grew)
        if committed[key] > 0:
            committed[key] -= 1
        else:
            verdict.fail(f"effector call {key} has no committed RepairRecord")

    # every expected repair needs its own effector call, in time
    by_pool: Dict[tuple, List] = defaultdict(list)
    for call in calls:
        by_pool[(call.pool, call.grew)].append(call)
    for want in sorted(expected, key=lambda e: e.trigger):
        queue = by_pool[(want.pool, want.grew)]
        while queue and queue[0].logical < want.trigger:
            queue.pop(0)
            verdict.fail(f"effector call on T{want.pool} answers no expected repair")
        if queue and queue[0].logical <= want.deadline:
            queue.pop(0)
        else:
            verb = "grow" if want.grew else "shrink"
            verdict.fail(
                f"no {verb} of T{want.pool} between t={want.trigger:g} "
                f"and its deadline t={want.deadline:g}"
            )
    for (pool, _), queue in sorted(by_pool.items()):
        if queue:
            verdict.fail(
                f"{len(queue)} effector call(s) on T{pool} answer no expected repair",
                len(queue),
            )

    for pool, size in enumerate(plane.app.size.tolist()):
        model_size = runtime.model.component(f"T{pool}").get_property("size")
        if int(model_size) != size:
            verdict.fail(
                f"T{pool}: model size {model_size} != last effector size {size}"
            )

    if runtime.sharded:
        models = [runtime.model.shard(k) for k in range(len(runtime.checkers))]
    else:
        models = [runtime.model]
    for checker, model in zip(runtime.checkers, models):
        for result in checker.violations(model):
            verdict.fail(f"{result} after the closing healthy phase")
    return verdict


def check_repeats(digests: Sequence[str]) -> Verdict:
    """One operation per repeat: its digest must equal the first's."""
    verdict = Verdict(attempted=len(digests))
    for k, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            verdict.fail(f"repeat {k} digest {digest} != repeat 0 {digests[0]}")
    return verdict


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plane_digest(plane, logical: bool = True) -> str:
    """What the plane did: effector calls and final sizes.

    ``logical=False`` leaves the call times out — the live plane's
    logical timeline is wall-paced, so only the *what* repeats.
    """
    calls = [
        (c.pool, c.size, c.grew) + ((round(c.logical, 6),) if logical else ())
        for c in plane.effector.calls
    ]
    if not logical:
        calls.sort()
    return _sha({"calls": calls, "sizes": plane.app.size.tolist()})


def run_digest(result) -> str:
    """Behaviour digest of one ``RunResult``: request totals plus the
    repair history.  Trace records are left out on purpose — the
    ROADMAP's tracing item will reshape them."""
    history = [
        {
            k: record.as_dict()[k]
            for k in ("started", "ended", "strategy", "scope", "committed",
                      "tactic_applied", "abort_reason", "intents")
        }
        for record in result.history
    ]
    return _sha(
        {
            "issued": result.issued,
            "completed": result.completed,
            "dropped": result.dropped,
            "history": history,
        }
    )
