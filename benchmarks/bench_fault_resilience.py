"""E-fault — BMMB vs FMMB under crashes and link flapping.

The paper's guarantees assume fault-free nodes on a static dual graph.
This benchmark measures what its two algorithms actually deliver when the
``repro.faults`` engine relaxes that: node crash fractions scaling from 0
to 0.3, and grey-zone link flapping at increasing rates.

Regeneration: a thin wrapper over the ``fault_resilience`` campaign.
Its declarative checks carry the measured claims — fault-free baselines
solve outright, BMMB's among-survivors solved rate is non-increasing in
the crash fraction, link flapping alone never breaks solvability — and
the zip-axis expansion keeps the replication seeds paired across fault
scales.  Seed-determinism (one faulted spec run twice agrees exactly) is
asserted here directly, since it is what makes the numbers reportable.
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


def bench_fault_resilience(benchmark, report):
    campaign = build_campaign("fault_resilience")
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    failures = [f for check in checks for f in check.failures]
    assert not failures, failures
    report(
        "E-fault BMMB vs FMMB among-survivors solved rate and completion "
        "under crashes and link flapping",
        render_table(campaign_summary_rows(campaign, points)),
    )
    # Determinism is what makes these numbers reportable: one faulted
    # spec, run twice, must agree exactly.
    probe = campaign.sweep("fmmb_flap").expand()[0]
    assert run(probe, RunOptions.summary()) == run(probe, RunOptions.summary())
    representative = campaign.sweep("bmmb_crash").expand()[-1]
    benchmark.pedantic(
        run,
        args=(representative, RunOptions.summary()),
        rounds=3,
        iterations=1,
    )
