"""A1 — ablation: gauge caching/relocation vs destroy-and-create.

Paper §5.3: "Most of this time is spent in communicating to create and
delete gauges.  Improving this time by caching gauges or relocating them
(rather than destroying and creating new ones) should see our repair
speed improve dramatically."
"""

from repro import api
from repro.experiment.metrics import extract_claims
from repro.util.tables import render_table

HORIZON = 700.0  # phase A suffices: both headline repairs fire before 700 s


def run_pair():
    base = api.run(
        api.RunConfig.adapted().but(horizon=HORIZON, name="adapted-nocache")
    )
    cached = api.run(
        api.RunConfig.adapted().but(
            horizon=HORIZON, gauge_caching=True, name="adapted-cached"
        )
    )
    return base, cached


def test_a1_gauge_caching(benchmark, artifact):
    base, cached = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    base_claims, cached_claims = extract_claims(base), extract_claims(cached)

    rows = [
        ["mean repair duration (s)",
         round(base_claims.mean_repair_duration, 1),
         round(cached_claims.mean_repair_duration, 1)],
        ["repairs committed",
         base_claims.repairs_committed, cached_claims.repairs_committed],
        ["violation fraction (C3+C4)",
         round(sum(base.s(f"latency.{c}").fraction_above(2.0, start=120)
                   for c in ("C3", "C4")) / 2, 3),
         round(sum(cached.s(f"latency.{c}").fraction_above(2.0, start=120)
                   for c in ("C3", "C4")) / 2, 3)],
        ["gauge redeployments",
         base.stats.gauges.get("redeployments", 0),
         cached.stats.gauges.get("redeployments", 0)],
    ]
    text = render_table(
        ["metric", "destroy+create (paper)", "cached gauges (proposed)"],
        rows, title="A1: gauge caching ablation (paper section 5.3, bullet 1)",
    )
    print(text)
    artifact("ablation_a1_gauge_caching", text)

    # The paper's prediction: repair speed improves dramatically.
    assert cached_claims.mean_repair_duration < base_claims.mean_repair_duration / 3
    assert base_claims.mean_repair_duration > 15.0
    assert cached_claims.mean_repair_duration < 10.0
    # Faster repairs mean the squeezed clients spend no more (usually less)
    # time above threshold.
    for c in ("C3", "C4"):
        assert cached.s(f"latency.{c}").fraction_above(2.0, start=120) <= \
            base.s(f"latency.{c}").fraction_above(2.0, start=120) + 0.02
