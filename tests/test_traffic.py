"""Tests for the steady-state traffic subsystem (repro.traffic)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    materialize_topology,
    materialize_workload,
    run,
)
from repro.ids import MessageAssignment
from repro.mac.dedup import DeliveredRing
from repro.mac.schedulers import UniformDelayScheduler
from repro.runtime.observations import Probe
from repro.sim.rng import RandomSource
from repro.topology import line_network
from repro.traffic import (
    ARRIVALS,
    STEADY_GAUGES,
    OpenArrivalSchedule,
    list_arrivals,
    steady_state_metrics,
    window_series,
)

from tests.conftest import run_bmmb


def _open_spec(substrate="standard", *, process="poisson", seed=11, **params):
    workload = {"process": process, "rate": 0.02, "count": 10, **params}
    model = (
        ModelSpec(params={"max_slots": 500_000})
        if substrate in ("radio", "sinr")
        else ModelSpec()
    )
    return ExperimentSpec(
        name="test-traffic",
        topology=TopologySpec(
            "random_geometric",
            {"n": 12, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("open_arrivals", workload),
        model=model,
        substrate=substrate,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def test_arrival_registry_contents():
    assert set(list_arrivals()) == {"poisson", "bursty", "diurnal"}
    assert "poisson" in ARRIVALS


@pytest.mark.parametrize("process", sorted(ARRIVALS.names()))
def test_arrival_processes_are_deterministic(process):
    dual = line_network(6)

    def build():
        rng = RandomSource(5, "arrivals")
        return ARRIVALS.get(process)(dual, rng, rate=0.05, count=12)

    first, second = build(), build()
    assert first.arrivals == second.arrivals


@pytest.mark.parametrize("process", sorted(ARRIVALS.names()))
def test_arrival_process_shape(process):
    dual = line_network(6)
    schedule = ARRIVALS.get(process)(
        dual, RandomSource(7, "arrivals"), rate=0.1, count=15
    )
    assert isinstance(schedule, OpenArrivalSchedule)
    assert schedule.k == 15
    times = [a.time for a in schedule.sorted_by_time()]
    assert times == sorted(times)
    assert all(t >= 0.0 for t in times)
    assert {a.node for a in schedule.arrivals} <= set(dual.nodes)


def test_bursty_arrivals_cluster():
    """ON/OFF modulation leaves long silent gaps a plain Poisson of the
    same mean rate (gap 20 here) essentially never produces."""
    dual = line_network(6)
    schedule = ARRIVALS.get("bursty")(
        dual,
        RandomSource(3, "arrivals"),
        rate=0.05,
        count=40,
        mean_on=20.0,
        mean_off=200.0,
    )
    times = [a.time for a in schedule.sorted_by_time()]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert max(gaps) > 100.0
    assert min(gaps) < 20.0


def test_open_schedule_validates_warmup_fraction():
    dual = line_network(4)
    with pytest.raises(ExperimentError, match="warmup_fraction"):
        ARRIVALS.get("poisson")(
            dual, RandomSource(1), count=3, warmup_fraction=1.0
        )


def test_open_arrivals_workload_rejects_unknown_process():
    spec = _open_spec(process="nope")
    dual = materialize_topology(spec)
    with pytest.raises(ExperimentError, match="arrival process"):
        materialize_workload(spec, dual)


def test_open_arrivals_workload_rejects_bad_parameter():
    spec = _open_spec(bogus=1)
    dual = materialize_topology(spec)
    with pytest.raises(ExperimentError, match="bogus"):
        materialize_workload(spec, dual)


def test_open_arrivals_workload_is_reproducible():
    spec = _open_spec()
    dual = materialize_topology(spec)
    first = materialize_workload(spec, dual)
    second = materialize_workload(spec, dual)
    assert first.arrivals == second.arrivals
    assert first.warmup_fraction == 0.2


# ----------------------------------------------------------------------
# Steady-state metrics
# ----------------------------------------------------------------------
def test_steady_state_metrics_basic():
    arrivals = {"a": 0.0, "b": 10.0}
    completions = {"a": 5.0, "b": 12.0}
    gauges = steady_state_metrics(arrivals, completions, warmup_fraction=0.2)
    # Warmup is keyed to the arrival horizon (10), so warmup = 2 and only
    # "b" is measured; the horizon extends to the last completion (12).
    assert gauges["warmup_time"] == pytest.approx(2.0)
    assert gauges["arrivals_measured"] == 1.0
    assert gauges["delivered_measured"] == 1.0
    assert gauges["backlog_final"] == 0.0
    assert gauges["throughput"] == pytest.approx(1.0 / 10.0)
    assert gauges["latency_p50"] == pytest.approx(2.0)
    assert gauges["latency_p99"] == pytest.approx(2.0)


def test_steady_state_metrics_warmup_uses_arrival_horizon():
    """A saturated service drags completions far past the last arrival;
    warmup must not swallow every arrival because of that."""
    arrivals = {f"m{i}": float(i) for i in range(10)}
    completions = {f"m{i}": 1000.0 + i for i in range(10)}
    gauges = steady_state_metrics(arrivals, completions, warmup_fraction=0.5)
    assert gauges["warmup_time"] == pytest.approx(4.5)
    assert gauges["arrivals_measured"] == 5.0


def test_steady_state_metrics_unfinished_messages():
    arrivals = {"a": 0.0, "b": 100.0}
    gauges = steady_state_metrics(arrivals, {}, warmup_fraction=0.2)
    assert gauges["delivered_measured"] == 0.0
    assert gauges["throughput"] == 0.0
    assert math.isinf(gauges["latency_p95"])
    assert gauges["backlog_final"] == 1.0


def test_steady_state_metrics_inflight_walk():
    arrivals = {"a": 0.0, "b": 1.0, "c": 2.0}
    completions = {"a": 4.0, "b": 3.0, "c": 6.0}
    gauges = steady_state_metrics(arrivals, completions, warmup_fraction=0.0)
    assert gauges["inflight_peak"] == 3.0
    # Occupancy integral over [0, 6]: 1+2+3+2+2 = 10 unit-times.
    assert gauges["inflight_mean"] == pytest.approx(10.0 / 6.0)


def test_steady_state_metrics_validation():
    with pytest.raises(ExperimentError, match="arrival"):
        steady_state_metrics({}, {})
    with pytest.raises(ExperimentError, match="warmup_fraction"):
        steady_state_metrics({"a": 1.0}, {}, warmup_fraction=1.5)


# ----------------------------------------------------------------------
# Windowed probes
# ----------------------------------------------------------------------
def test_windowed_probe_folds_exact_totals():
    probe = Probe(window=10.0)
    for i in range(25):
        probe.emit("deliver", float(i), node=0, key=f"m{i}")
    assert probe.events() == ()
    assert probe.count("deliver") == 25.0
    windows = probe.windows()
    assert [w.index for w in windows] == [0, 1, 2]
    assert [w.events for w in windows] == [10.0, 10.0, 5.0]
    assert windows[0].counts == {"deliver": 10.0}
    assert windows[1].start == 10.0 and windows[1].end == 20.0
    metrics = probe.metrics()
    assert metrics["obs_events_folded"] == 25.0
    assert metrics["obs_windows_retained"] == 3.0
    assert metrics["obs_window_evictions"] == 0.0


def test_windowed_probe_evicts_but_keeps_totals():
    probe = Probe(window=1.0, max_windows=2)
    for i in range(7):
        probe.emit("rcv", float(i), node=0)
    metrics = probe.metrics()
    assert metrics["obs_retained_peak"] <= 2.0
    assert metrics["obs_window_evictions"] == 5.0
    # Eviction drops per-window detail, never the running totals.
    assert probe.count("rcv") == 7.0
    assert len(probe.windows()) == 2


def test_windowed_probe_validation():
    with pytest.raises(ExperimentError, match="window"):
        Probe(window=0.0)
    with pytest.raises(ExperimentError, match="max_windows"):
        Probe(max_windows=4)
    with pytest.raises(ExperimentError, match="max_windows"):
        Probe(window=1.0, max_windows=0)
    with pytest.raises(ExperimentError, match="windowed"):
        Probe().windows()


def test_windowed_probe_rejects_unknown_kind():
    with pytest.raises(ExperimentError, match="unknown observation kind"):
        Probe(window=1.0).emit("nope", 0.0)


# ----------------------------------------------------------------------
# Bounded delivered-state (DeliveredRing)
# ----------------------------------------------------------------------
def test_delivered_ring_evicts_fifo():
    ring = DeliveredRing(2)
    ring["a"] = 1.0
    ring["b"] = 2.0
    ring["c"] = 3.0
    assert "a" not in ring
    assert "b" in ring and "c" in ring
    assert len(ring) == 2
    assert ring.evictions == 1


def test_delivered_ring_updates_do_not_evict():
    ring = DeliveredRing(2)
    ring["a"] = 1.0
    ring["b"] = 2.0
    ring["a"] = 9.0
    assert ring["a"] == 9.0
    assert ring.evictions == 0
    assert len(ring) == 2


def test_delivered_ring_validates_cap():
    with pytest.raises(ExperimentError, match="cap"):
        DeliveredRing(0)


def test_delivered_cap_is_transparent_when_large():
    """A cap above the in-flight population never evicts, so the run is
    identical to the unbounded dict."""
    dual = line_network(8)
    assignment = MessageAssignment.one_each([1, 3, 5], "m")

    def go(**kwargs):
        return run_bmmb(
            dual, assignment, UniformDelayScheduler(RandomSource(4)), **kwargs
        )

    plain, capped = go(), go(delivered_cap=10_000)
    assert capped.solved == plain.solved
    assert capped.completion_time == plain.completion_time
    assert capped.per_message_completion == plain.per_message_completion


def test_delivered_cap_via_spec_params():
    spec = _open_spec()
    capped = ExperimentSpec(
        name=spec.name,
        topology=spec.topology,
        algorithm=spec.algorithm,
        scheduler=spec.scheduler,
        workload=spec.workload,
        model=ModelSpec(params={"delivered_cap": 4096}),
        substrate=spec.substrate,
        seed=spec.seed,
    )
    base, bounded = run(spec, RunOptions.summary()), run(capped, RunOptions.summary())
    assert bounded.solved == base.solved
    assert bounded.metrics == base.metrics


# ----------------------------------------------------------------------
# End to end: open arrivals through run()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("substrate", ["standard", "radio", "sinr"])
def test_open_arrivals_emit_steady_gauges(substrate):
    result = run(_open_spec(substrate), RunOptions.summary())
    assert result.solved
    for gauge in STEADY_GAUGES:
        assert gauge in result.metrics, gauge
    assert result.metrics["throughput"] > 0.0
    assert (
        result.metrics["latency_p50"]
        <= result.metrics["latency_p95"]
        <= result.metrics["latency_p99"]
    )


def test_time_zero_workloads_report_no_steady_gauges():
    """The steady gauges are strictly opt-in: classic one-shot workloads
    keep their exact metric set (golden fixtures depend on this)."""
    spec = _open_spec()
    classic = ExperimentSpec(
        name=spec.name,
        topology=spec.topology,
        algorithm=spec.algorithm,
        scheduler=spec.scheduler,
        workload=WorkloadSpec("one_each", {"k": 3}),
        substrate="standard",
        seed=spec.seed,
    )
    result = run(classic, RunOptions.summary())
    for gauge in STEADY_GAUGES:
        assert gauge not in result.metrics


def test_windowed_run_bounds_observation_memory():
    result = run(_open_spec(count=30), RunOptions(window=50.0, max_windows=6))
    assert result.raw is None
    assert result.observations == ()
    metrics = result.metrics
    assert metrics["obs_retained_peak"] <= 6.0
    assert metrics["obs_events_folded"] > 6.0
    assert metrics["obs_window"] == 50.0


def test_windowed_run_matches_summary_run_gauges():
    spec = _open_spec(count=20)
    summary = run(spec, RunOptions.summary())
    windowed = run(spec, RunOptions(window=25.0, max_windows=4))
    for name, value in summary.metrics.items():
        assert windowed.metrics[name] == value, name


def test_arrival_rejection_names_capable_substrates():
    spec = ExperimentSpec(
        name="test-traffic-reject",
        topology=TopologySpec("line", {"n": 6}),
        algorithm=AlgorithmSpec("fmmb"),
        workload=WorkloadSpec(
            "open_arrivals", {"process": "poisson", "rate": 0.02, "count": 4}
        ),
        substrate="rounds",
        seed=1,
    )
    with pytest.raises(ExperimentError) as excinfo:
        run(spec, RunOptions.summary())
    message = str(excinfo.value)
    assert "rounds" in message
    assert "open_arrivals" in message
    assert "time-0" in message
    for capable in ("standard", "radio", "sinr"):
        assert capable in message


# ----------------------------------------------------------------------
# Windowed probe eviction edges
# ----------------------------------------------------------------------
def test_windowed_probe_single_window_keeps_only_newest():
    probe = Probe(window=2.0, max_windows=1)
    for i in range(6):
        probe.emit("rcv", float(i), node=0)
    windows = probe.windows()
    assert [w.index for w in windows] == [2]
    metrics = probe.metrics()
    assert metrics["obs_retained_peak"] == 1.0
    assert metrics["obs_window_evictions"] == 2.0
    assert probe.count("rcv") == 6.0


def test_windowed_probe_boundary_event_opens_next_window():
    probe = Probe(window=10.0)
    probe.emit("rcv", 9.999, node=0)
    probe.emit("rcv", 10.0, node=0)  # exactly on the boundary
    windows = probe.windows()
    assert [w.index for w in windows] == [0, 1]
    assert windows[1].start == 10.0
    assert [w.events for w in windows] == [1.0, 1.0]


def test_windowed_probe_counters_after_fold_without_eviction():
    probe = Probe(window=5.0, max_windows=2)
    for i in range(10):  # two full buckets, exactly at capacity
        probe.emit("deliver", float(i), node=0, key=f"m{i}")
    metrics = probe.metrics()
    assert metrics["obs_events_folded"] == 10.0
    assert metrics["obs_window_evictions"] == 0.0
    assert metrics["obs_windows_retained"] == 2.0
    probe.emit("deliver", 10.0, node=0, key="late")  # third bucket evicts
    metrics = probe.metrics()
    assert metrics["obs_window_evictions"] == 1.0
    assert metrics["obs_retained_peak"] == 2.0
    assert probe.count("deliver") == 11.0


# ----------------------------------------------------------------------
# Per-window latency/throughput series
# ----------------------------------------------------------------------
def test_window_series_buckets_by_completion_time():
    arrivals = {"a": 0.0, "b": 4.0, "c": 8.0}
    completions = {"a": 2.0, "b": 6.0, "c": 10.0}
    series = window_series(
        arrivals, completions, warmup_fraction=0.0, windows=2
    )
    # Span [0, 10] in two windows of width 5: a completes in w0; b in
    # w1; c completes exactly at the horizon and clamps into w1.
    assert series["window_latency_mean"] == ((0.0, 2.0), (1.0, 2.0))
    assert series["window_throughput"] == ((0.0, 1 / 5.0), (1.0, 2 / 5.0))


def test_window_series_omits_empty_latency_windows():
    arrivals = {"a": 0.0, "b": 10.0}
    completions = {"a": 1.0, "b": 11.0}
    series = window_series(
        arrivals, completions, warmup_fraction=0.0, windows=4
    )
    latency_indexes = [x for x, _ in series["window_latency_mean"]]
    throughput_indexes = [x for x, _ in series["window_throughput"]]
    assert latency_indexes == [0.0, 3.0]  # middle windows saw nothing
    assert throughput_indexes == [0.0, 1.0, 2.0, 3.0]  # zeros kept
    assert dict(series["window_throughput"])[1.0] == 0.0


def test_window_series_empty_on_no_finite_completion():
    series = window_series({"a": 0.0, "b": 1.0}, {}, warmup_fraction=0.0)
    assert series == {"window_latency_mean": (), "window_throughput": ()}


def test_window_series_validation():
    with pytest.raises(ExperimentError, match="arrival"):
        window_series({}, {})
    with pytest.raises(ExperimentError, match="windows"):
        window_series({"a": 0.0}, {}, windows=0)
    with pytest.raises(ExperimentError, match="warmup_fraction"):
        window_series({"a": 0.0}, {}, warmup_fraction=1.0)


def test_open_arrival_runs_surface_window_series():
    result = run(_open_spec(), RunOptions.summary())
    assert set(result.series) == {"window_latency_mean", "window_throughput"}
    assert result.series["window_throughput"], "throughput series empty"
    again = run(_open_spec(), RunOptions.summary())
    assert again.series == result.series  # deterministic

def test_one_shot_runs_have_no_series():
    spec = _open_spec()
    classic = ExperimentSpec(
        name=spec.name,
        topology=spec.topology,
        algorithm=spec.algorithm,
        scheduler=spec.scheduler,
        workload=WorkloadSpec("one_each", {"k": 3}),
        substrate="standard",
        seed=spec.seed,
    )
    assert run(classic, RunOptions.summary()).series == {}
