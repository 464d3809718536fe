"""A4 — ablation: repair settle time and oscillation.

Paper §5.3 bullet 4: "the effects of a repair on a system will take time...
Without taking this effect into account, unnecessary repairs are likely to
occur (for example, to continue adding servers or to move clients)" — and
§7 proposes smarter repair-selection policies as future work.

This ablation sweeps the engine's settle time (how long it waits after a
repair before re-evaluating constraints) and measures repair counts and
client-move oscillation across the full run including the stress phase.
"""

from repro import api
from repro.experiment.metrics import extract_claims
from repro.util.tables import render_table

HORIZON = 1300.0  # includes the full stress phase
SETTLES = (5.0, 20.0, 60.0)


def run_sweep():
    results = {}
    for settle in SETTLES:
        cfg = api.RunConfig.adapted().but(
            horizon=HORIZON, settle_time=settle, name=f"adapted-settle{settle:.0f}",
        )
        results[settle] = api.run(cfg)
    return results


def test_a4_repair_policy(benchmark, artifact):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    claims = {}
    for settle, result in sorted(results.items()):
        c = extract_claims(result)
        claims[settle] = c
        frac = sum(
            result.s(f"latency.{cl}").fraction_above(2.0, start=120)
            for cl in result.clients
        ) / len(result.clients)
        rows.append([
            settle, c.repairs_committed, c.repairs_aborted, c.client_moves,
            c.oscillations, round(frac, 3),
        ])
    text = render_table(
        ["settle time (s)", "committed", "aborted", "moves",
         "oscillating moves", "mean frac > 2 s"],
        rows,
        title="A4: repair settle-time ablation (paper section 5.3, bullet 4)",
    )
    print(text)
    artifact("ablation_a4_repair_policy", text)

    # A hasty engine issues more repairs (and at least as much oscillation)
    # than a patient one.
    total = lambda c: c.repairs_committed + c.repairs_aborted
    assert total(claims[5.0]) > total(claims[60.0])
    assert claims[5.0].oscillations >= claims[60.0].oscillations
    # Every setting still achieves the core result during this window.
    for settle, result in results.items():
        for cl in ("C3", "C4"):
            frac = result.s(f"latency.{cl}").fraction_above(
                2.0, start=300, end=590
            )
            assert frac == 0.0, (settle, cl, frac)


def test_a4_worst_first_selection(benchmark, artifact):
    """The paper's §7 proposal: fix the worst-latency client first."""

    def run_pair():
        first = api.run(api.RunConfig.adapted().but(
            horizon=700.0, name="adapted-first"))
        worst = api.run(api.RunConfig.adapted().but(
            horizon=700.0, violation_policy="worst", name="adapted-worst"))
        return first, worst

    first, worst = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    rows = []
    for name, result in (("first-reported", first), ("worst-latency", worst)):
        c = extract_claims(result)
        rows.append([
            name, c.repairs_committed, c.client_moves,
            round(max(result.s(f"latency.{cl}").fraction_above(2.0, start=120)
                      for cl in ("C3", "C4")), 3),
        ])
    text = render_table(
        ["selection policy", "committed", "moves", "worst frac > 2 s (C3/C4)"],
        rows, title="A4b: violation-selection policy (paper section 7 proposal)",
    )
    print(text)
    artifact("ablation_a4b_selection_policy", text)

    # Both policies repair the phase-A squeeze; the worst-first policy
    # must move the two squeezed clients (they have the worst latency).
    for _, result in (("f", first), ("w", worst)):
        moved = {m[1] for m in result.history.client_moves()}
        assert moved == {"C3", "C4"}
