"""E4 — Figure 2 + Theorem 3.17/Lemma 3.20: the ``Ω(D·Fack)`` lower bound.

Claim: on the two-parallel-lines network with grey-zone ``G'``, an
adversarial message scheduler can legally delay any MMB algorithm for
``Ω(D·Fack)`` by starving the message frontier while satisfying the
progress bound via long unreliable edges.

Regeneration: a thin wrapper over the ``figure2_lowerbound`` campaign —
the depth ladder, the ``(D−1)·Fack`` floor, the exact per-hop ``Fack``
slope, and the benign-scheduler contrast live in its checks; this
benchmark additionally keeps the five-axiom certificate on the smallest
depth (the campaign's spec-level runs discard per-instance logs).
"""

from __future__ import annotations

from repro import check_axioms
from repro.analysis.tables import render_table
from repro.campaigns import (
    build_campaign,
    campaign_summary_rows,
    evaluate_checks,
    results_by_sweep,
    run_campaign,
)
from repro.experiments import RunOptions, materialize_topology, run

FACK = 20.0
FPROG = 1.0


def bench_lowerbound_figure2(benchmark, report):
    campaign = build_campaign("figure2_lowerbound")
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    failures = [f for check in checks for f in check.failures]
    assert not failures, failures
    # Axiom-certify the smallest adversarial execution (raw instances).
    smallest = campaign.sweep("adversarial").expand()[0]
    certified = run(smallest)
    cert = check_axioms(
        certified.raw.instances, materialize_topology(smallest), FACK, FPROG
    )
    assert cert.ok, cert.violations[:3]
    report(
        "E4 Figure 2 lower bound: adversary forces (D-1)*Fack (axiom-certified)",
        render_table(campaign_summary_rows(campaign, points)),
    )
    representative = campaign.sweep("adversarial").expand()[-1]
    benchmark.pedantic(
        run,
        args=(representative, RunOptions.summary()),
        rounds=3,
        iterations=1,
    )
