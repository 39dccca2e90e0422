"""Workload inputs and cycles of the benchmark of record.

Every input is written out here — spec parameters, campaign choices,
the slot-lane shape — so the benchmark measures the same work whatever
later changes land in ``repro.perf`` or the built-in campaigns' defaults
of record.  Every spec seed is derived from the benchmark seed: the
event-driven specs and the sweep take ``1 + seed``, every campaign
directive's base seed is ``<its built-in base seed> + seed``, and the
slot lane's topology stream takes ``29 + seed``.  ``DEFAULT_SEED`` (0)
therefore reproduces the built-in campaigns point for point, which is
where the committed digests were recorded.

A *cycle* is one pass over a workload's items.  Each cycle function
takes a :class:`Cycle` (tracer, ledger, scratch directory) and returns
the number of items it completed; the main loop in ``run.py`` repeats
cycles for the requested seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
import os
import shutil
import time
from contextlib import contextmanager

from repro.campaigns.builtin import build_campaign
from repro.campaigns.checks import Point
from repro.campaigns.executor import (
    evaluate_checks,
    evaluate_trace_checks,
    expand_points,
    results_by_sweep,
    run_campaign,
    verify_campaign,
)
from repro.campaigns.report import write_artifacts
from repro.campaigns.spec import CampaignSpec, CheckSpec, SweepDirective
from repro.campaigns.store import spec_key
from repro.experiments.runner import (
    ExperimentResult,
    RunOptions,
    clear_topology_cache,
    run,
)
from repro.experiments.specs import (
    AlgorithmSpec,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.experiments.substrates import (
    ExecutionContext,
    check_capabilities,
    check_workload_capability,
    get_substrate,
)
from repro.experiments.sweep import Sweep, run_sweep
from repro.radio.decay import phase_probability
from repro.radio.engines import resolve_engine
from repro.radio.sinr import SINRRadioNetwork
from repro.runtime.journal import read_journal, write_journal
from repro.sim.rng import RandomSource
from repro.topology.geometric import random_geometric_network

from gate import journal_digest, lane_digest, result_digest
from tracing import TimedStore

DEFAULT_SEED = 0
WORKERS = 2

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def geometric(n: int) -> TopologySpec:
    """``random_geometric`` with c=1.6, grey p=0.4, side ~ sqrt(n)/2."""
    side = max(2.0, round(math.sqrt(n) / 2.0, 1))
    return TopologySpec(
        "random_geometric",
        {"n": n, "side": side, "c": 1.6, "grey_edge_probability": 0.4},
    )


def bmmb(n: int, seed: int, scheduler: str = "uniform", fault=None, tag=""):
    extra = {} if fault is None else {"fault": fault}
    return ExperimentSpec(
        name=f"bench-bmmb-{tag or scheduler}-n{n}",
        topology=geometric(n),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec(scheduler),
        workload=WorkloadSpec("one_each", {"k": 8}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=1 + seed,
        **extra,
    )


def fmmb(n: int, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"bench-fmmb-n{n}",
        topology=geometric(n),
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 8}),
        model=ModelSpec(fprog=1.0, fack=20.0),
        substrate="rounds",
        seed=1 + seed,
    )


def mmb_campaign(seed: int, scale: float = 1.0) -> CampaignSpec:
    """The ``mmb_event`` items as a campaign: one single-point sweep per
    spec (no seed derivation), checked for ``solved``."""
    small, large = _n(512, scale), _n(1024, scale)
    crash = FaultSpec("crash_random", {"fraction": 0.1})
    specs = [
        (f"bmmb_uniform_n{small}", bmmb(small, seed)),
        (f"bmmb_uniform_n{large}", bmmb(large, seed)),
        (f"bmmb_contention_n{small}", bmmb(small, seed, "contention")),
        (f"bmmb_crash_n{small}", bmmb(small, seed, fault=crash, tag="crash")),
        (f"fmmb_n{small}", fmmb(small, seed)),
    ]
    return CampaignSpec(
        name="mmb_event",
        title="Event-driven BMMB/FMMB executions",
        sweeps=tuple(
            SweepDirective(name=label, base=spec, derive_seeds=False)
            for label, spec in specs
        ),
        checks=(CheckSpec(kind="solved"),),
    )


def _n(n: int, scale: float) -> int:
    return max(16, int(n * scale))


def reseed_campaign(
    campaign: CampaignSpec, seed: int, *, engine: str | None = None,
    journal: bool = False, trace_checks: tuple[CheckSpec, ...] = (),
) -> CampaignSpec:
    """Offset every directive's base seed by ``seed`` (and optionally set
    the reception engine, journaling, and extra trace checks)."""
    sweeps = []
    for directive in campaign.sweeps:
        base = dataclasses.replace(directive.base, seed=directive.base.seed + seed)
        if engine is not None:
            base = dataclasses.replace(
                base, model=dataclasses.replace(base.model, engine=engine)
            )
        sweeps.append(
            dataclasses.replace(
                directive, base=base, journal=journal or directive.journal
            )
        )
    return dataclasses.replace(
        campaign,
        sweeps=tuple(sweeps),
        trace_checks=campaign.trace_checks + trace_checks,
    )


def radio_campaigns(
    seed: int, engine: str = "auto", scale: float = 1.0, sinr: bool = False
) -> list[CampaignSpec]:
    """``radio_footnote2`` (and, for the gate, ``sinr_contention``)."""
    n_max = None if scale >= 1.0 else 12
    names = ["radio_footnote2"] + (["sinr_contention"] if sinr else [])
    return [
        reseed_campaign(
            build_campaign(name, n_max=n_max, **({} if scale >= 1.0 else {"seeds": 1})),
            seed,
            engine=engine,
        )
        for name in names
    ]


#: The slot lane: one SINR network at 10^4 nodes swept through the same
#: six decay-shaped transmitter sets the committed macro lane uses.
LANE_N = 10_000
LANE_SEED = 29
LANE_STEPS = (1, 2, 3, 4, 5, 6)


def lane_transmitter_sets(nodes) -> list[dict]:
    """Knuth-hash membership against the decay phase probability (no RNG
    draws, so every engine sees byte-identical slot traffic)."""
    depth = max(LANE_STEPS)
    fractions = {v: ((v * 2654435761) & 0xFFFFFFFF) / 2.0**32 for v in nodes}
    return [
        {v: f"lane-m{step}" for v in nodes if fractions[v] < phase_probability(step, depth)}
        for step in LANE_STEPS
    ]


#: journaled_fanout inputs: the ``repro sweep --journal-dir`` path, then
#: these built-in campaigns merged by ``all_figures``, every directive
#: journaled, with these trace checks over every journal.
SWEEP_POINTS = 8
FANOUT_INCLUDE = "figure1,figure2_lowerbound,crossover,fault_resilience,smoke"
FANOUT_TRACE_CHECKS = (
    CheckSpec(kind="abort_accounting"),
    CheckSpec(kind="delivery_order"),
)


def fanout_sweep(seed: int, scale: float = 1.0) -> list[ExperimentSpec]:
    return Sweep.seeds(bmmb(_n(512, scale), seed), SWEEP_POINTS if scale >= 1.0 else 2)


def fanout_campaign(seed: int, scale: float = 1.0) -> CampaignSpec:
    include = FANOUT_INCLUDE if scale >= 1.0 else "smoke"
    return reseed_campaign(
        build_campaign("all_figures", include=include),
        seed,
        journal=True,
        trace_checks=FANOUT_TRACE_CHECKS,
    )


# ----------------------------------------------------------------------
# Cycles
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Cycle:
    """What a cycle needs: tracer, ledger, seed, size, and scratch dir."""

    workload: str
    seed: int
    scale: float
    tracer: object
    ledger: object
    scratch: str
    traced: bool
    index: int = 0
    #: Reception engine of the radio items and the lane (``--record``
    #: uses ``reference``), and whether ``radio_slots`` also runs
    #: ``sinr_contention`` (the gate does).
    engine: str = "auto"
    sinr: bool = False
    #: ``(campaign, store, cold results)`` of the latest cycle, for the
    #: warm pass; the serial workloads' store is filled on first use.
    warm: tuple = ()
    #: Walls of every warm pass run so far.
    warm_walls: list = dataclasses.field(default_factory=list)
    #: The current cycle's lap walls by label (see :meth:`lap`).
    laps: dict = dataclasses.field(default_factory=dict)
    #: Whether :meth:`lap` scales each wall by the host probe.
    calibrate: bool = False

    @contextmanager
    def lap(self, label: str):
        """Time one segment of the cycle, untimed brackets excluded.

        A cycle's laps cover its timed work; ``run.py`` sums each lap's
        median wall over the run's cycles.  With :attr:`calibrate`, the
        wall is scaled by :func:`host_factor` taken just before and just
        after the lap (the probes themselves are untimed).
        """
        factor = self._host_factor()
        untimed = self.tracer.untimed_s
        started = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - started - (self.tracer.untimed_s - untimed)
            factor = (factor + self._host_factor()) / 2
            self.laps[label] = self.laps.get(label, 0.0) + wall * factor

    def _host_factor(self) -> float:
        if not self.calibrate:
            return 1.0
        with self.tracer.untimed():
            return host_factor()


#: The host probe's median chunk on the 2-core Xeon VM the benchmark was
#: tuned on.  It only sets the scale of calibrated walls: a calibrated
#: second is a second at the speed where one probe chunk takes this long.
PROBE_REFERENCE_S = 0.009
PROBE_CHUNKS = 5


def probe_chunk() -> None:
    """Fixed pure-Python work shaped like the event kernel: heap
    pushes and pops of tuples and dict updates.  None of it is the
    program's code, so a change to the program cannot move it."""
    heap: list = []
    counts: dict = {}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 6007, i, ("probe", i)))
        counts[i % 97] = counts.get(i % 97, 0) + 1
    while heap:
        heapq.heappop(heap)


def host_factor() -> float:
    """How much faster the reference speed is than the host right now:
    ``PROBE_REFERENCE_S`` over the median of a few probe chunks."""
    walls = []
    for _ in range(PROBE_CHUNKS):
        started = time.perf_counter()
        probe_chunk()
        walls.append(time.perf_counter() - started)
    walls.sort()
    return PROBE_REFERENCE_S / walls[len(walls) // 2]


def run_item(cy: Cycle, spec: ExperimentSpec, options: RunOptions) -> ExperimentResult:
    """One ``run`` call — decomposed into its layers when traced.

    The traced path composes exactly what :func:`repro.experiments.run`
    does (capability checks, :class:`ExecutionContext`, substrate
    ``prepare``, ``Execution.run``) so each layer gets its own span; the
    untraced path is the public ``run`` itself.
    """
    clear_topology_cache()
    if not cy.traced:
        return run(spec, options)
    tr = cy.tracer
    substrate = get_substrate(spec.substrate)
    with tr.span("experiments.prepare"):
        check_capabilities(spec, substrate)
        ctx = ExecutionContext(spec, keep_raw=False)
        check_workload_capability(ctx, substrate)
        with tr.span("topology.build"):
            dual = ctx.dual
        execution = substrate.prepare(ctx)
    tr.count("topology.builds", 1)
    tr.count("topology.edges", dual.reliable_edge_count + dual.unreliable_edge_count)
    with tr.span(f"{spec.substrate}.execute"):
        outcome = execution.run()
    return ExperimentResult(
        spec=spec,
        solved=outcome.solved,
        completion_time=outcome.completion_time,
        broadcast_count=outcome.broadcast_count,
        delivered_count=outcome.delivered_count,
        metrics=outcome.metrics,
        series=outcome.series,
    )


def count_result(tr, result: ExperimentResult) -> None:
    """Per-layer counts read off a result's metrics."""
    m = result.metrics
    if result.spec.substrate == "standard":
        tr.count("sim.events", m.get("sim_events", 0.0))
        tr.count("mac.bcasts", result.broadcast_count)
        tr.count("mac.rcv", m.get("rcv_count", 0.0))
        tr.count("mac.deliveries", result.delivered_count)
    elif result.spec.substrate == "rounds":
        tr.count("rounds.rounds", m.get("rounds_total", 0.0))
        tr.count("mac.deliveries", result.delivered_count)
    else:
        tr.count("radio.slots", m.get("slots", 0.0))
        tr.count("mac.deliveries", result.delivered_count)


def campaign_items(cy: Cycle, campaign: CampaignSpec) -> list[ExperimentResult]:
    """Run every point of ``campaign`` serially, then its checks."""
    by_sweep: dict = {}
    results = []
    for point in expand_points(campaign):
        label = f"{cy.workload}/{campaign.name}[{point.sweep}#{point.index}]"
        with cy.lap(label):
            result = cy.ledger.item(
                label, lambda s=point.spec: run_item(cy, s, RunOptions.summary())
            )
        if result is None:
            continue
        count_result(cy.tracer, result)
        cy.ledger.digest(label, result_digest(result))
        by_sweep.setdefault(point.sweep, []).append((point, result))
        results.append(result)
    with cy.lap(f"{cy.workload}/{campaign.name}/checks"), cy.tracer.span("campaigns.checks"):
        outcomes = evaluate_checks(campaign, _points_by_sweep(campaign, by_sweep))
    cy.ledger.checks(f"{cy.workload}/{campaign.name}", outcomes)
    cy.tracer.count("campaigns.checks_failed", sum(1 for o in outcomes if o.failures))
    return results


def mmb_event(cy: Cycle) -> int:
    campaign = mmb_campaign(cy.seed, cy.scale)
    results = campaign_items(cy, campaign)
    cy.warm = (campaign, None, results)
    return len(results)


def radio_slots(cy: Cycle) -> int:
    done = 0
    for campaign in radio_campaigns(cy.seed, cy.engine, cy.scale, cy.sinr):
        results = campaign_items(cy, campaign)
        if campaign.name == "radio_footnote2":
            cy.warm = (campaign, None, results)
        done += len(results)
    with cy.lap(f"{cy.workload}/sinr_lane"):
        receptions = cy.ledger.item(f"{cy.workload}/sinr_lane", lambda: lane(cy))
    if receptions is not None:
        cy.ledger.digest(f"{cy.workload}/sinr_lane", lane_digest(receptions))
        done += 1
    return done


def _points_by_sweep(campaign: CampaignSpec, by_sweep: dict) -> dict:
    return {
        d.name: [Point(d.name, p.index, p.spec, r) for p, r in by_sweep.get(d.name, [])]
        for d in campaign.sweeps
    }


def lane(cy: Cycle):
    """The SINR slot lane: build, then sweep ``run_slot`` on ``auto``."""
    tr = cy.tracer
    n = LANE_N if cy.scale >= 1.0 else 400
    rng = RandomSource(LANE_SEED + cy.seed, "perf-lane")
    with tr.span("topology.build"):
        dual = random_geometric_network(
            n, max(2.0, round(math.sqrt(n) / 2.0, 1)), 1.6, 0.4, rng.child("topology")
        )
    tr.count("topology.builds", 1)
    tr.count("topology.edges", dual.reliable_edge_count + dual.unreliable_edge_count)
    slots = lane_transmitter_sets(dual.nodes_sorted)
    with tr.span("radio.network"):
        net = SINRRadioNetwork(dual, rng.child("fading"), engine=cy.engine)
    receptions = []
    for transmissions in slots:
        with tr.span("radio.run_slot"):
            receptions.append(net.run_slot(transmissions))
        tr.count("radio.cells", len(transmissions) * (n - len(transmissions)))
    tr.count("radio.auto_vectorized", float(resolve_engine("auto").name == "vectorized"))
    return receptions, [stat.collisions for stat in net.stats]


def journaled_fanout(cy: Cycle) -> int:
    tr, ledger = cy.tracer, cy.ledger
    shutil.rmtree(os.path.join(cy.scratch, f"cycle{cy.index - 1}"), ignore_errors=True)
    workdir = os.path.join(cy.scratch, f"cycle{cy.index}")
    journal_dir = os.path.join(workdir, "journals")
    os.makedirs(journal_dir)
    # Phase 1: the `repro sweep --journal-dir` path.
    done = 0
    paths = []
    with cy.lap("journaled_fanout/sweep"):
        specs = fanout_sweep(cy.seed, cy.scale)
        with tr.span("experiments.sweep"):
            sweep = ledger.item(
                "journaled_fanout/sweep",
                lambda: run_sweep(specs, workers=workers(cy), options=RunOptions.observed()),
                weight=len(specs),
            )
        if sweep is not None:
            tr.count("experiments.sweep_serial_s", sum(r.wall_time for r in sweep))
            paths = encode_journals(cy, sweep, journal_dir)
            done += len(sweep)
    # Phase 2: all_figures, cold into a fresh store, then its checks.
    with cy.lap("journaled_fanout/campaign_cold"):
        campaign = fanout_campaign(cy.seed, cy.scale)
        store = TimedStore(os.path.join(workdir, "store"))
        store.tracer = tr
        with tr.span("campaigns.cold"):
            cold = ledger.item(
                "journaled_fanout/campaign_cold",
                lambda: run_campaign(campaign, store, workers=workers(cy)),
                weight=len(expand_points(campaign)),
            )
        if cold is not None:
            done += cold.ran + cold.cached
            ledger.require("journaled_fanout/campaign_cold: complete", cold.complete)
            tr.count("campaigns.points_serial_s", sum(r.wall_time for r in cold.results))
            if cold.health is not None:
                for name in ("dispatched", "completed", "steals", "retried"):
                    tr.count(f"campaigns.{name}", cold.health.counters.get(name, 0))
            with tr.span("campaigns.checks"):
                outcomes = evaluate_checks(campaign, results_by_sweep(cold))
                outcomes += evaluate_trace_checks(campaign, store)
            ledger.checks("journaled_fanout/all_figures", outcomes)
            tr.count("campaigns.checks_failed", sum(1 for o in outcomes if o.failures))
        tr.count("store.bytes_written", _tree_bytes(os.path.join(workdir, "store")))
    cy.warm = (campaign, store, cold.results if cold is not None else [])
    # Correctness (untimed): journals decode to the captured stream, and
    # every point's result and journal keeps its digest.  Journal digests
    # are only computed where a record or an earlier cycle can use them.
    with tr.untimed():
        for result, path in paths:
            with tr.span("runtime.journal_decode"):
                journal = read_journal(path)
            label = f"journaled_fanout/sweep/{result.spec.seed}"
            ledger.digest(label, result_digest(result))
            ledger.digest(f"{label}/journal", lambda: journal_digest(journal.observations))
            ledger.require(
                f"{label}: journal round trip",
                journal.observations
                == tuple(o for o in result.observations if o.kind != "profile"),
            )
        if cold is not None and cold.complete:
            for point, result in zip(cold.points, cold.results):
                label = f"journaled_fanout/campaign/{point.sweep}#{point.index}"
                ledger.digest(label, result_digest(result))
                if ledger.wants(f"{label}/journal"):
                    journal = store.get_journal(point.spec)
                    ledger.require(f"{label}: journal readable", journal is not None)
                    if journal is not None:
                        ledger.digest(f"{label}/journal", journal_digest(journal.observations))
        shutil.rmtree(journal_dir)
    if cold is not None:
        with cy.lap("journaled_fanout/warm"):
            seconds, points = warm_pass(cy)
        cy.warm_walls.append(seconds)
        done += points
    for name, value in store.stats.as_dict().items():
        if name != "writes":
            tr.count(f"store.{name}", value)
    return done


#: Warm passes after the cycles.  ``journaled_fanout`` also runs one
#: inside every cycle and reports the median as ``warm_s``; the serial
#: workloads' single pass only checks the warm path's outputs.
WARM_PASSES = {"mmb_event": 1, "radio_slots": 1, "journaled_fanout": 3}


def encode_journals(cy: Cycle, sweep, journal_dir: str) -> list:
    """``write_journal`` per sweep point, named by store key as
    ``repro sweep --journal-dir`` names them."""
    tr = cy.tracer
    paths = []
    for result in sweep:
        key = spec_key(result.spec)
        path = os.path.join(journal_dir, f"{key}.obs.jsonl.gz")
        with tr.span("runtime.journal_encode"):
            write_journal(
                path,
                result.observations,
                meta={"spec": result.spec.to_dict(), "spec_key": key},
            )
        paths.append((result, path))
        tr.count("runtime.observations", len(result.observations))
        tr.count("runtime.journal_bytes", os.path.getsize(path))
        count_result(tr, result)
    return paths


def workers(cy: Cycle) -> int:
    """``journaled_fanout`` fans out; the other workloads run serially."""
    return WORKERS if cy.workload == "journaled_fanout" else 1


def warm_pass(cy: Cycle) -> tuple[float, int]:
    """The warm phase: the campaign again against its warm store (every
    point a hit), then checks, report, and verify.

    The serial workloads run no campaign of their own, so their store is
    filled once with the cycle's results.  Returns ``(seconds, points
    resolved)`` for one pass.
    """
    campaign, store, cold = cy.warm
    tr, ledger = cy.tracer, cy.ledger
    if store is None:
        store = TimedStore(os.path.join(cy.scratch, "warm-store"))
        for result in cold:
            store.put(result)
        cy.warm = (campaign, store, cold)
    store.tracer = tr
    artifacts = os.path.join(os.path.dirname(store.root), "artifacts")
    started = time.perf_counter()
    with tr.span("campaigns.warm"):
        warm = run_campaign(campaign, store, workers=workers(cy))
        with tr.span("campaigns.checks"):
            outcomes = evaluate_checks(campaign, results_by_sweep(warm))
        with tr.span("campaigns.report"):
            write_artifacts(campaign, results_by_sweep(warm), outcomes, artifacts, health=warm.health)
        with tr.span("campaigns.verify"):
            report = verify_campaign(campaign, store)
    elapsed = time.perf_counter() - started
    with tr.untimed():
        label = f"{cy.workload}/warm"
        ledger.require(f"{label}: all hits", warm.cached == warm.total and warm.ran == 0)
        ledger.require(f"{label}: equals cold", warm.results == cold)
        ledger.require(f"{label}: verify complete", report.complete)
        folder = os.path.join(artifacts, campaign.name)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".csv"):
                with open(os.path.join(folder, name), "rb") as fh:
                    ledger.digest(f"{cy.workload}/artifacts/{name}", _sha(fh.read()))
    return elapsed, warm.total


def _tree_bytes(root: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CYCLES = {
    "mmb_event": mmb_event,
    "radio_slots": radio_slots,
    "journaled_fanout": journaled_fanout,
}

