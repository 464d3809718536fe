"""A3 — ablation: Remos pre-querying vs cold first queries.

Paper §5.3: "The first Remos query for information about bandwidth between
two nodes on the network takes several minutes because Remos needs to
collect and analyze data.  After this initial delay, the query is quite
fast.  To reduce this effect, we pre-queried Remos."
"""

from repro import api
from repro.util.tables import render_table

HORIZON = 500.0


def run_pair():
    prewarmed = api.run(
        api.RunConfig.adapted().but(horizon=HORIZON, name="adapted-prewarm")
    )
    cold = api.run(
        api.RunConfig.adapted().but(
            horizon=HORIZON, remos_prewarm=False, name="adapted-cold"
        )
    )
    return prewarmed, cold


def test_a3_remos_prewarm(benchmark, artifact):
    prewarmed, cold = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    p_stats, c_stats = prewarmed.remos_stats, cold.remos_stats
    p_first = prewarmed.trace.select("repair.start")
    c_first = cold.trace.select("repair.start")
    rows = [
        ["cold Remos queries", p_stats.cold_queries, c_stats.cold_queries],
        ["mean query latency (s)",
         round(p_stats.mean_latency, 2), round(c_stats.mean_latency, 2)],
        ["total queries", p_stats.queries, c_stats.queries],
        ["first repair dispatched (s)",
         round(p_first[0].time, 1) if p_first else None,
         round(c_first[0].time, 1) if c_first else None],
    ]
    text = render_table(
        ["metric", "pre-queried (paper's fix)", "cold start"],
        rows, title="A3: Remos pre-query ablation (paper section 5.3, bullet 3)",
    )
    print(text)
    artifact("ablation_a3_remos_prewarm", text)

    # Pre-querying eliminates cold queries entirely.
    assert p_stats.cold_queries == 0
    assert c_stats.cold_queries > 0
    # Cold starts pay "several minutes" (90 s here) on first touch.
    assert c_stats.mean_latency > p_stats.mean_latency * 2
    # The adaptation still works either way; prewarm repairs no later.
    assert p_first and c_first
    assert p_first[0].time <= c_first[0].time
