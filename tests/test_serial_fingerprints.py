"""Serial-mode compatibility: adapted runs pinned bit for bit.

The concurrent repair engine must leave ``concurrency="serial"`` (the
default everywhere except the ``multi_tenant`` scenario) untouched.
These hashes were captured on the commit *before* the concurrency work
landed: every scalar, every repair record, every trace event, and every
sample of every series of the three pre-existing scenarios' adapted runs
feeds the digest, so any scheduling or numeric drift — however small —
fails loudly.

If one of these ever fails, the question is not "how do I update the
hash" but "which change re-ordered the simulation"; see the determinism
notes in ``.claude/skills/verify/SKILL.md`` and docs/performance.md.
"""

import hashlib
import json

import pytest

from repro import api

PINNED = {
    "client_server":
        "78338f64ee45adea1112a119b27027599de98ebb8dc05f45eb4a5a9f769c9caf",
    "pipeline":
        "fee570fa60c94bcd089fc38ef51026f65deb435bd675ef0fe9a9b07f9ef02397",
    "master_worker":
        "ec3f0da01758c031e9d62291fccc752ae2db8379666f1b8c1c0fa97531df9c6e",
    # Captured on the commit before the fault plane / resilient repair
    # execution landed: the all-defaults-off resilience path must keep
    # these runs byte-identical too.
    "multi_tenant":
        "e460b3fbb70cc81117c789b3f9e3fe038e3074d8f1b23943391580911c5aeec3",
    "map_reduce":
        "ed6dd2aa63f1605b98f9a5254b6fb2f393f6045fd39d6ee3fb02d809cab79f10",
    # grid_site ships WITH its fault plane on by default; this pin locks
    # the seeded fault schedule itself (crash times, effector sabotage,
    # retries and breaker transitions all feed the digest via the trace
    # and history).
    "grid_site":
        "525bb6eb96bf9ae1be7219ba716dc689a3d27ec0c440a2dcd0e174a671e2a2f3",
}

# Captured on the commit before the six ``*Experiment`` classes were
# folded onto one base: a control run builds no runtime, so only the
# start-hook order (sources -> extras -> sampler) can move these.
PINNED_CONTROL = {
    "client_server":
        "70a6902b7b645a8efc843e3caea1dbd90432dcabd701842846fcde80e128fa0c",
    "pipeline":
        "0403eae1d903c4ea985087ec95a468f0007211e0f045e84002daa4fda441284f",
    "master_worker":
        "72e9ea3d96a11d655e61e04bd2f7e70f5be29a346554ccc84419066a03701128",
    "multi_tenant":
        "2f54ff71d024f52efb47990563572751bab84c4137811977457b14043ad61f57",
    "map_reduce":
        "7312c53b920891674168302c43b5ae1e31ea35c542be10869d52e0a997cef410",
    # the outages-only FaultPlane of the control run feeds this one
    "grid_site":
        "6fdf22a8c77b86ae7dd07cc091fd29bbb6fea480c1526b04d2484f9099567e24",
}

# Same capture point; the only pin that goes through the sharded build
# branch of AdaptationRuntime.
PINNED_SHARDED = (
    "29ff43ce4ab60e5d19edda91983ea1249f7bb41efbb5f8d652b61d73bce9e990"
)


def fingerprint(result) -> str:
    """A platform-stable digest of everything a run produced.

    Floats go through ``repr`` (shortest round-trip, IEEE-stable across
    CPython and numpy versions); ordering is canonicalized.
    """
    payload = {
        "issued": result.issued,
        "completed": result.completed,
        "dropped": result.dropped,
        "history": [
            [
                repr(float(r.started)),
                r.strategy,
                r.invariant,
                r.scope,
                repr(float(r.ended)) if r.ended is not None else None,
                r.committed,
                r.tactic_applied,
                r.abort_reason,
                [str(i) for i in r.intents],
            ]
            for r in result.history
        ],
        "trace": [[repr(float(rec.time)), rec.category] for rec in result.trace],
        "series": {
            name: [
                [repr(float(t)) for t in ts.times],
                [repr(float(v)) for v in ts.values],
            ]
            for name, ts in sorted(result.series.items())
        },
    }
    blob = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_adapted_run_fingerprint_unchanged(scenario):
    result = api.run(api.RunConfig.adapted(scenario))
    assert fingerprint(result) == PINNED[scenario], (
        f"{scenario}: the serial adapted run is no longer bit-for-bit "
        f"identical to the pre-concurrency engine"
    )


@pytest.mark.parametrize("scenario", sorted(PINNED_CONTROL))
def test_control_run_fingerprint_unchanged(scenario):
    result = api.run(api.RunConfig.control(scenario))
    assert fingerprint(result) == PINNED_CONTROL[scenario], (
        f"{scenario}: the control run drifted — a start hook moved"
    )


def test_sharded_adapted_run_fingerprint_unchanged():
    result = api.run(api.RunConfig.adapted("multi_tenant_sharded"))
    assert fingerprint(result) == PINNED_SHARDED


def test_serial_is_the_default_everywhere_but_multi_tenant():
    """The compatibility guarantee rests on serial staying the default."""
    from repro.repair.engine import ArchitectureManager
    from repro.runtime.spec import AdaptationSpec

    assert AdaptationSpec.__dataclass_fields__["concurrency"].default == "serial"
    assert (
        ArchitectureManager.__init__.__defaults__[
            ArchitectureManager.__init__.__code__.co_varnames.index("concurrency")
            - (ArchitectureManager.__init__.__code__.co_argcount
               - len(ArchitectureManager.__init__.__defaults__))
        ]
        == "serial"
    )
    # multi_tenant opts into the disjoint scheduler; grid_site declares
    # serial explicitly (its params carry the knob); the sharded variant
    # runs serial per-shard loops (all concurrency comes from sharding);
    # everything else inherits the serial default.
    declared = {
        "multi_tenant": "disjoint",
        "multi_tenant_sharded": "serial",
        "grid_site": "serial",
    }
    entries = {e["name"]: e for e in api.list_scenarios()}
    for name, entry in entries.items():
        assert entry["params"].get("concurrency") == declared.get(name)
