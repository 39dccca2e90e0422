"""E1 — Figure 1, cell (Standard model, G' = G).

Claim: BMMB solves MMB in ``O(D·Fprog + k·Fack)`` when there are no
unreliable links [30]; the explicit Theorem 3.16 constant (r = 1) is
``t1 = (D + 2k − 2)·Fprog + (k − 1)·Fack``.

Regeneration: this is now a thin wrapper over the ``figure1`` campaign
(``python -m repro campaign run figure1``) — the sweep grid, the t1 bound
validation, and the Fprog-vs-Fack slope claims all live in the campaign's
declarative checks; the benchmark just executes the campaign in-memory,
asserts its checks pass, and reports the aggregated table.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.campaigns import (
    build_campaign,
    campaign_summary_rows,
    evaluate_checks,
    results_by_sweep,
    run_campaign,
)
from repro.experiments import RunOptions, run


def bench_standard_gg_scaling(benchmark, report):
    campaign = build_campaign("figure1")
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    failures = [f for check in checks for f in check.failures]
    assert not failures, failures
    report(
        "E1 Figure 1 (Standard, G'=G): BMMB = O(D*Fprog + k*Fack)",
        render_table(campaign_summary_rows(campaign, points)),
    )
    representative = campaign.sweep("d_scaling").expand()[-1]
    benchmark.pedantic(
        run,
        args=(representative, RunOptions.summary()),
        rounds=3,
        iterations=1,
    )
