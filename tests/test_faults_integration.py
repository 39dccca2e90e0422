"""End-to-end fault injection: every substrate, determinism, regression.

Acceptance bar for the subsystem: ``run(spec)`` with a ``FaultSpec`` is
deterministic (same seed, same result, serial or parallel); a spec with
faults disabled is bit-identical to pre-fault behavior; scenarios are
JSON-round-trippable and sweepable via ``fault.*`` dotted paths; and the
fault semantics (aborted broadcasts, lost messages, deferred churn
arrivals, survivor accounting) are observable on each substrate.
"""

from __future__ import annotations

import math

import pytest

from repro import BMMBNode, MessageAssignment, RandomSource, run_standard
from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    materialize_fault_engine,
    materialize_topology,
    run,
    run_sweep,
)
from repro.experiments.runner import ROOT_STREAM
from repro.mac.schedulers import UniformDelayScheduler

FACK = 20.0
FPROG = 1.0

GEO = TopologySpec(
    "random_geometric",
    {"n": 16, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
)


def standard_spec(fault: FaultSpec | None = None, seed: int = 11) -> ExperimentSpec:
    return ExperimentSpec(
        name="faulted-std",
        topology=TopologySpec("line", {"n": 12}),
        workload=WorkloadSpec("single_source", {"node": 0, "count": 3}),
        scheduler=SchedulerSpec("uniform"),
        fault=fault or FaultSpec("none"),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Regression: faults disabled == pre-fault behavior
# ----------------------------------------------------------------------
def test_fault_none_is_bit_identical_to_default_spec():
    plain = run(standard_spec())
    explicit = run(standard_spec(fault=FaultSpec("none")))
    assert plain == explicit
    assert plain.metrics == explicit.metrics
    assert "nodes_crashed" not in plain.metrics  # no fault bookkeeping at all


def test_fault_none_matches_the_legacy_imperative_runner():
    from repro import line_network

    result = run(standard_spec(fault=FaultSpec("none")))
    root = RandomSource(11, ROOT_STREAM)
    legacy = run_standard(
        line_network(12),
        MessageAssignment.single_source(0, 3),
        lambda _: BMMBNode(),
        UniformDelayScheduler(root.child("scheduler"), p_unreliable=0.5),
        FACK,
        FPROG,
    )
    assert result.completion_time == legacy.completion_time
    assert result.raw.deliveries.times == legacy.deliveries.times


def test_materialize_fault_engine_is_none_when_disabled():
    spec = standard_spec()
    assert materialize_fault_engine(spec, materialize_topology(spec)) is None


# ----------------------------------------------------------------------
# Determinism with faults, on every substrate
# ----------------------------------------------------------------------
FAULTED_SPECS = [
    standard_spec(FaultSpec("crash_random", {"fraction": 0.25, "latest": 0.3})),
    ExperimentSpec(
        name="faulted-protocol",
        topology=TopologySpec("line", {"n": 10}),
        algorithm=AlgorithmSpec("flood_max"),
        scheduler=SchedulerSpec("uniform"),
        workload=None,
        fault=FaultSpec("crash_random", {"fraction": 0.2, "latest": 0.2}),
        substrate="protocol",
        seed=5,
    ),
    ExperimentSpec(
        name="faulted-rounds",
        topology=GEO,
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 2}),
        fault=FaultSpec("flap_periodic", {"fraction": 0.6, "period": 8.0}),
        model=ModelSpec(fprog=FPROG),
        substrate="rounds",
        seed=9,
    ),
    ExperimentSpec(
        name="faulted-radio",
        topology=TopologySpec("star", {"n": 8}),
        workload=WorkloadSpec("one_each", {"nodes": [1, 2, 3]}),
        fault=FaultSpec("churn_poisson", {"join_fraction": 0.3}),
        model=ModelSpec(params={"max_slots": 50_000}),
        substrate="radio",
        seed=3,
    ),
]


@pytest.mark.parametrize("spec", FAULTED_SPECS, ids=lambda s: s.name)
def test_faulted_run_is_deterministic(spec):
    first = run(spec, RunOptions.summary())
    second = run(spec, RunOptions.summary())
    assert first == second
    assert first.metrics == second.metrics
    assert first.metrics["fault_events_applied"] >= 0.0


@pytest.mark.parametrize("spec", FAULTED_SPECS, ids=lambda s: s.name)
def test_faulted_spec_json_round_trips(spec):
    clone = ExperimentSpec.from_json(spec.to_json())
    assert clone == spec
    assert run(clone, RunOptions.summary()) == run(spec, RunOptions.summary())


def test_old_json_without_fault_field_still_loads():
    data = standard_spec().to_dict()
    del data["fault"]
    spec = ExperimentSpec.from_dict(data)
    assert spec.fault == FaultSpec("none")


# ----------------------------------------------------------------------
# Crash semantics (standard substrate)
# ----------------------------------------------------------------------
def test_crash_cutting_the_line_fails_survivor_mmb():
    from repro import line_network
    from repro.faults import FaultEngine, FaultEvent, FaultKind, FaultPlan
    from repro.faults import survivor_outcome

    dual = line_network(8)
    # Node 3 crashes before the flood from node 0 can cross it.
    plan = FaultPlan.of([FaultEvent(0.5, FaultKind.CRASH, node=3)])
    engine = FaultEngine(dual, plan)
    result = run_standard(
        dual,
        MessageAssignment.single_source(0, 1),
        lambda _: BMMBNode(),
        UniformDelayScheduler(RandomSource(1, "s"), p_unreliable=0.0),
        FACK,
        FPROG,
        fault_engine=engine,
    )
    outcome = survivor_outcome(
        dual,
        MessageAssignment.single_source(0, 1),
        result.deliveries.times,
        engine,
    )
    # Survivors beyond the cut (4..7) can never receive the message.
    assert not outcome.solved
    assert outcome.completion_time == math.inf
    assert outcome.required == 7  # all survivors of node 0's component
    assert 0 < outcome.met < outcome.required
    delivered_nodes = {node for node, _ in result.deliveries.times}
    assert delivered_nodes <= {0, 1, 2, 3}
    # Every instance terminated despite the dead reliable neighbor
    # (the fault-mode fallback acknowledgment at Fack guarantees it).
    assert result.instances is not None
    assert not result.instances.pending()


def test_crash_before_arrival_loses_the_message():
    from repro import line_network
    from repro.core.problem import Arrival, ArrivalSchedule
    from repro.faults import FaultEngine, FaultEvent, FaultKind, FaultPlan
    from repro.faults import survivor_outcome
    from repro.ids import Message

    dual = line_network(6)
    plan = FaultPlan.of([FaultEvent(1.0, FaultKind.CRASH, node=0)])
    engine = FaultEngine(dual, plan)
    schedule = ArrivalSchedule((Arrival(5.0, 0, Message("late", 0)),))
    result = run_standard(
        dual,
        schedule,
        lambda _: BMMBNode(),
        UniformDelayScheduler(RandomSource(2, "s"), p_unreliable=0.0),
        FACK,
        FPROG,
        fault_engine=engine,
    )
    assert engine.counters["messages_lost"] == 1
    assert "late" in engine.lost_message_ids
    outcome = survivor_outcome(
        dual, schedule.as_assignment(), result.deliveries.times, engine
    )
    # The lost message imposes no survivor obligations.
    assert outcome.required == 0
    assert outcome.solved


def test_contention_scheduler_survives_crashes_with_fallback_acks():
    spec = ExperimentSpec(
        name="contention-crash",
        topology=GEO,
        scheduler=SchedulerSpec("contention"),
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=FaultSpec("crash_random", {"fraction": 0.3, "latest": 0.2}),
        seed=4,
    )
    result = run(spec)
    assert result.metrics["nodes_crashed"] > 0
    assert not result.raw.instances.pending()


def test_enhanced_mac_runs_under_faults():
    spec = ExperimentSpec(
        name="enhanced-crash",
        topology=TopologySpec("line", {"n": 10}),
        workload=WorkloadSpec("one_each", {"k": 2}),
        fault=FaultSpec("crash_random", {"fraction": 0.2, "latest": 0.3}),
        model=ModelSpec(fack=FACK, fprog=FPROG, mac="enhanced"),
        seed=6,
    )
    first = run(spec, RunOptions.summary())
    assert first == run(spec, RunOptions.summary())
    assert first.metrics["survivors"] == 8.0


# ----------------------------------------------------------------------
# Churn semantics
# ----------------------------------------------------------------------
def test_churn_join_defers_the_messages_to_the_join_time():
    from repro import line_network
    from repro.faults import FaultEngine, FaultEvent, FaultKind, FaultPlan

    dual = line_network(6)
    plan = FaultPlan.of(
        [FaultEvent(7.0, FaultKind.JOIN, node=0)], initially_absent=[0]
    )
    engine = FaultEngine(dual, plan)
    result = run_standard(
        dual,
        MessageAssignment.single_source(0, 1),
        lambda _: BMMBNode(),
        UniformDelayScheduler(RandomSource(3, "s"), p_unreliable=0.0),
        FACK,
        FPROG,
        fault_engine=engine,
    )
    assert engine.counters["messages_deferred"] == 1
    # Nothing could be delivered before the origin joined at t=7.
    assert result.deliveries.times
    assert min(result.deliveries.times.values()) >= 7.0


# ----------------------------------------------------------------------
# Rounds + radio semantics
# ----------------------------------------------------------------------
def test_rounds_crash_reports_survivor_metrics():
    spec = ExperimentSpec(
        name="rounds-crash",
        topology=GEO,
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 2}),
        fault=FaultSpec(
            "crash_random", {"fraction": 0.25, "earliest": 0.0, "latest": 0.3}
        ),
        model=ModelSpec(fprog=FPROG),
        substrate="rounds",
        seed=9,
    )
    result = run(spec, RunOptions.summary())
    assert result.metrics["nodes_crashed"] == 4.0
    assert result.metrics["survivors"] == 12.0
    assert (
        result.metrics["survivor_delivered"]
        <= result.metrics["survivor_required"]
    )
    assert result.solved == (
        result.metrics["survivor_delivered"]
        == result.metrics["survivor_required"]
    )


def test_radio_crash_aborts_inflight_broadcasts_deterministically():
    spec = ExperimentSpec(
        name="radio-crash",
        topology=TopologySpec("star", {"n": 8}),
        workload=WorkloadSpec("one_each", {"nodes": [1, 2, 3, 4, 5, 6, 7]}),
        fault=FaultSpec(
            "crash_random",
            {"fraction": 0.25, "earliest": 0.0, "latest": 0.4, "horizon": 50.0},
        ),
        model=ModelSpec(params={"max_slots": 100_000}),
        substrate="radio",
        seed=3,
    )
    first = run(spec, RunOptions.summary())
    assert first == run(spec, RunOptions.summary())
    assert first.metrics["nodes_crashed"] == 2.0
    assert first.metrics["survivors"] == 6.0


def test_protocol_crash_judges_leaders_among_survivors():
    spec = ExperimentSpec(
        name="protocol-targeted",
        topology=TopologySpec("line", {"n": 8}),
        algorithm=AlgorithmSpec("flood_max"),
        workload=None,
        # Crash the max-id node late: survivors keep electing the dead
        # node, so the survivor postcondition fails.
        fault=FaultSpec("crash_targeted", {"count": 1, "by": "id", "at": 0.9}),
        substrate="protocol",
        seed=5,
    )
    result = run(spec, RunOptions.summary())
    assert result.metrics["nodes_crashed"] == 1.0
    assert not result.solved


# ----------------------------------------------------------------------
# Sweeps over fault parameters
# ----------------------------------------------------------------------
def test_fault_params_are_sweepable_and_parallel_equals_serial():
    base = standard_spec(FaultSpec("crash_random", {"latest": 0.3}))
    specs = Sweep.grid(
        base, axes={"fault.fraction": [0.0, 0.2, 0.4]}, repeats=2
    )
    assert len(specs) == 6
    fractions = [s.fault.params["fraction"] for s in specs]
    assert fractions == [0.0, 0.0, 0.2, 0.2, 0.4, 0.4]
    serial = run_sweep(specs, workers=1)
    parallel = run_sweep(specs, workers=2)
    assert serial.results == parallel.results
    crashed = serial.metric("nodes_crashed")
    assert crashed[0] == 0.0 and crashed[-1] > 0.0


def test_fault_kind_is_sweepable_too():
    base = standard_spec(FaultSpec("none"))
    specs = Sweep.grid(
        base, axes={"fault.kind": ["none", "crash_random"]}, repeats=1
    )
    kinds = [s.fault.kind for s in specs]
    assert kinds == ["none", "crash_random"]  # axis values keep given order
    sweep = run_sweep(specs)
    assert len(sweep) == 2


def test_unknown_fault_kind_fails_with_registry_error():
    spec = standard_spec(FaultSpec("meteor_strike"))
    with pytest.raises(ExperimentError, match="unknown fault scenario"):
        run(spec)


def test_fault_spec_none_rejects_params():
    with pytest.raises(ExperimentError, match="takes no params"):
        FaultSpec("none", {"fraction": 0.2})
    with pytest.raises(ExperimentError, match="takes no params"):
        Sweep.grid(standard_spec(), axes={"fault.fraction": [0.0, 0.4]})


def test_contention_scheduler_survives_link_flapping():
    # Regression: a flapped-up grey edge captured in the bcast-time
    # required set used to raise SchedulerError when the edge went down
    # before the (lazily planned) delivery happened.
    spec = ExperimentSpec(
        name="contention-flap",
        topology=TopologySpec(
            "random_geometric",
            {"n": 16, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        scheduler=SchedulerSpec("contention"),
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=FaultSpec("flap_periodic", {"fraction": 1.0, "period": 3.0}),
        seed=0,
    )
    for seed in range(6):
        result = run(spec.with_seed(seed))
        assert not result.raw.instances.pending()
        assert run(spec.with_seed(seed), RunOptions.summary()).metrics == {
            k: v for k, v in result.metrics.items()
        }


def test_protocol_completion_reflects_activity_not_fault_horizon():
    # Link flapping never removes nodes or connectivity, so the election
    # still solves — but the installed fault timeline keeps the simulator
    # busy until the horizon.  Completion must be the protocol's real end
    # (last MAC/automaton event), not the timeline drain time.
    spec = ExperimentSpec(
        name="protocol-flap",
        topology=GEO,
        algorithm=AlgorithmSpec("flood_max"),
        workload=None,
        fault=FaultSpec(
            "flap_periodic",
            {"fraction": 0.5, "period": 10.0, "horizon": 100.0},
        ),
        substrate="protocol",
        seed=5,
    )
    result = run(spec, RunOptions.summary())
    assert result.solved
    assert result.metrics["end_time"] >= 90.0  # timeline drained
    assert result.completion_time == result.metrics["last_activity"]
    assert result.completion_time < 50.0  # the election itself ended early


def test_churn_poisson_honors_the_horizon():
    from repro.experiments import FAULTS
    from repro.sim.rng import RandomSource
    from repro.topology import line_network

    dual = line_network(12)
    plan = FAULTS.get("churn_poisson")(
        dual,
        RandomSource(4, "t"),
        join_fraction=0.5,
        leave_fraction=0.25,
        mean_gap=50.0,
        horizon=10.0,
    )
    assert plan.horizon <= 10.0
    joins = [e for e in plan.events if e.kind.value == "join"]
    assert {e.node for e in joins} == set(plan.initially_absent)


def test_dropped_delivery_bookkeeping_is_reclaimed_per_instance():
    from repro import line_network
    from repro.faults import FaultEngine, FaultEvent, FaultKind, FaultPlan

    dual = line_network(6)
    plan = FaultPlan.of([FaultEvent(0.2, FaultKind.CRASH, node=2)])
    engine = FaultEngine(dual, plan)
    result = run_standard(
        dual,
        MessageAssignment.single_source(1, 2),
        lambda _: BMMBNode(),
        UniformDelayScheduler(RandomSource(1, "s"), p_unreliable=0.0),
        FACK,
        FPROG,
        fault_engine=engine,
    )
    assert engine.counters["deliveries_dropped"] > 0
    assert not result.instances.pending()


def test_radio_replays_the_full_fault_timeline_like_standard():
    # A churn joiner that carries no message must still join on the radio
    # substrate, so survivor accounting agrees across substrates.
    def spec_for(substrate: str) -> ExperimentSpec:
        return ExperimentSpec(
            name=f"churn-{substrate}",
            topology=TopologySpec("star", {"n": 8}),
            workload=WorkloadSpec("one_each", {"nodes": [1]}),
            fault=FaultSpec("churn_poisson", {"join_fraction": 0.5}),
            model=ModelSpec(params={"max_slots": 50_000})
            if substrate == "radio"
            else ModelSpec(),
            substrate=substrate,
            seed=5,
        )

    radio = run(spec_for("radio"), RunOptions.summary())
    standard = run(spec_for("standard"), RunOptions.summary())
    assert radio.metrics["nodes_joined"] == standard.metrics["nodes_joined"]
    assert radio.metrics["survivors"] == standard.metrics["survivors"] == 8.0
    assert (
        radio.metrics["survivor_required"]
        == standard.metrics["survivor_required"]
    )


def test_crash_recover_resumes_bmmb_queues():
    # Victims recover 1 time unit after crashing; on_abort retransmits
    # the queue head, so the flood completes among all (recovered) nodes.
    spec = ExperimentSpec(
        name="crash-recover",
        topology=GEO,
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=FaultSpec(
            "crash_random",
            {"fraction": 0.4, "horizon": 5.0, "earliest": 0.1,
             "latest": 0.5, "recover_after": 1.0},
        ),
        seed=0,
    )
    result = run(spec)
    assert result.metrics["nodes_recovered"] == result.metrics["nodes_crashed"] > 0
    assert result.metrics["survivors"] == 16.0
    # Solved among all 16 nodes proves no recovered node stayed mute
    # with undelivered messages stuck in its queue.
    assert result.solved


def test_grid_can_sweep_fault_kind_with_fault_params_together():
    base = standard_spec()  # fault kind "none"
    specs = Sweep.grid(
        base,
        axes={"fault.kind": ["crash_random"], "fault.fraction": [0.0, 0.2]},
    )
    assert [s.fault for s in specs] == [
        FaultSpec("crash_random", {"fraction": 0.0}),
        FaultSpec("crash_random", {"fraction": 0.2}),
    ]


def test_crash_at_time_zero_delivers_the_wakeup_on_recovery():
    # A crash that beats the time-0 wakeup (fault priority wins the
    # instant) must not leave the automaton permanently asleep/mute: the
    # recovery delivers the first wakeup instead.
    spec = ExperimentSpec(
        name="insta-crash",
        topology=TopologySpec("line", {"n": 10}),
        algorithm=AlgorithmSpec("flood_max"),
        workload=None,
        fault=FaultSpec(
            "crash_random",
            {"fraction": 0.3, "earliest": 0.0, "latest": 0.0,
             "recover_after": 5.0, "horizon": 100.0},
        ),
        substrate="protocol",
        seed=2,
    )
    result = run(spec)
    assert result.metrics["nodes_recovered"] == result.metrics["nodes_crashed"] > 0
    # Every automaton woke up eventually and no one is stuck mid-send.
    # (Whether FloodMax re-converges is the algorithm's problem — it only
    # pushes on improvement, so a recovered partition may keep a stale
    # maximum; the harness contract is wakeup delivery and liveness.)
    assert all(a.known_max is not None for a in result.raw.automata.values())
    assert all(not a.sending for a in result.raw.automata.values())


def test_rounds_substrate_drains_the_timeline_like_the_others():
    fault = FaultSpec(
        "crash_random",
        {"fraction": 0.3, "earliest": 0.9, "latest": 1.0, "horizon": 100000.0},
    )
    kwargs = dict(
        topology=GEO,
        workload=WorkloadSpec("one_each", {"k": 2}),
        fault=fault,
        seed=3,
    )
    standard = run(
        ExperimentSpec(name="drain-std", **kwargs), RunOptions.summary()
    )
    rounds = run(
        ExperimentSpec(
            name="drain-rounds",
            algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
            model=ModelSpec(fprog=FPROG),
            substrate="rounds",
            **kwargs,
        ),
        RunOptions.summary(),
    )
    assert rounds.metrics["survivors"] == standard.metrics["survivors"]
    assert rounds.metrics["nodes_crashed"] == standard.metrics["nodes_crashed"]


def test_churn_joiners_are_owed_only_post_join_messages():
    # Time-0 workload + late joiners: the flood legitimately finishes
    # before they exist, so they are excused and the run solves.
    spec = ExperimentSpec(
        name="churn-excuse",
        topology=GEO,
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=FaultSpec("churn_poisson", {"join_fraction": 0.3, "mean_gap": 20.0}),
        seed=5,
    )
    result = run(spec, RunOptions.summary())
    assert result.metrics["nodes_joined"] > 0
    assert result.solved
    # The obligations shrank accordingly: fewer than all (node, message)
    # pairs, but every counted one was met.
    assert (
        result.metrics["survivor_delivered"]
        == result.metrics["survivor_required"]
    )


def test_spec_from_dict_accepts_explicit_null_fault():
    data = standard_spec().to_dict()
    data["fault"] = None
    assert ExperimentSpec.from_dict(data).fault == FaultSpec("none")


def test_deferred_churn_message_obliges_peers_present_at_its_injection():
    # Node 0 joins at t=5 and injects m0 then; node 2 joined at t=2, so it
    # was present for the whole flood of m0 and IS owed it.
    from repro import line_network
    from repro.faults import FaultEngine, FaultEvent, FaultKind, FaultPlan
    from repro.faults import survivor_outcome

    dual = line_network(3)
    plan = FaultPlan.of(
        [
            FaultEvent(2.0, FaultKind.JOIN, node=2),
            FaultEvent(5.0, FaultKind.JOIN, node=0),
        ],
        initially_absent=[0, 2],
    )
    engine = FaultEngine(dual, plan)
    engine.advance_to(10.0)
    assignment = MessageAssignment.single_source(0, 1)
    (mid,) = [m.mid for m in assignment.all_messages()]
    deliveries = {(0, mid): 5.0, (1, mid): 5.5}  # node 2 never got it
    outcome = survivor_outcome(dual, assignment, deliveries, engine)
    assert outcome.required == 3  # the deferred message obliges everyone
    assert not outcome.solved
    solved = survivor_outcome(
        dual, assignment, {**deliveries, (2, mid): 6.0}, engine
    )
    assert solved.solved and solved.completion_time == 6.0


def test_suppressed_bcast_of_dead_node_is_replayed_on_recovery():
    # A driver flips the automaton into "sending" while the node is dead:
    # the suppressed payload must come back as on_abort at recovery so the
    # node is not wedged forever.
    from repro import Simulator, line_network
    from repro.faults import FaultEngine, FaultEvent, FaultKind, FaultPlan
    from repro.mac.interfaces import Automaton
    from repro.mac.standard import StandardMACLayer

    events: list[str] = []

    class Driver(Automaton):
        def on_abort(self, api, payload):
            events.append(f"abort:{payload}")

    dual = line_network(3)
    plan = FaultPlan.of(
        [
            FaultEvent(1.0, FaultKind.CRASH, node=1),
            FaultEvent(4.0, FaultKind.RECOVER, node=1),
        ]
    )
    engine = FaultEngine(dual, plan)
    sim = Simulator()
    mac = StandardMACLayer(
        sim,
        dual,
        UniformDelayScheduler(RandomSource(0, "s"), p_unreliable=0.0),
        FACK,
        FPROG,
        fault_engine=engine,
    )
    for node in dual.nodes:
        mac.register(node, Driver())
    mac.start()
    # At t=2 (node 1 dead) something tries to broadcast through it.
    sim.schedule_at(2.0, mac.bcast, 1, "wedged-payload")
    sim.run()
    assert engine.counters["bcasts_suppressed"] == 1
    assert events == ["abort:wedged-payload"]
