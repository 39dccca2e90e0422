"""The pluggable substrate API: registry, capabilities, observations, sinr.

Acceptance bar for the substrate redesign: every engine is a registry
entry behind one generic ``run`` loop, a tiny spec runs (and reruns
identically) on each of them, the ``substrate`` axis sweeps like any
other, results round-trip through strict JSON even with non-finite
metrics, and third-party ``@register_substrate`` entries are
spec-expressible with capability mismatches rejected clearly.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import ExperimentError, MACError
from repro.experiments import (
    RunOptions,
    SUBSTRATES,
    AlgorithmSpec,
    Execution,
    ExperimentResult,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    SubstrateBase,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    get_substrate,
    list_substrates,
    register_substrate,
    run,
    run_sweep,
    smoke_spec,
)
from repro.experiments.substrates import SMOKE_SPEC_BUILDERS
from repro.runtime.trace import flatten, from_observations

BUILTINS = ("standard", "protocol", "rounds", "radio", "sinr")


# ----------------------------------------------------------------------
# A third-party substrate, registered the way downstream code would
# ----------------------------------------------------------------------
@register_substrate("toy_noop")
class ToySubstrate(SubstrateBase):
    """Constant-time toy substrate (registry/capability tests only)."""

    supports_faults = False
    supports_arrivals = False
    scheduler_role = "seeded"

    def prepare(self, ctx):
        dual = ctx.dual

        def _run():
            ctx.probe.gauge("nodes", float(dual.n))
            return self.outcome(ctx, solved=True, completion_time=0.0)

        return Execution(ctx, _run)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_builtin_substrates_are_registered():
    assert set(BUILTINS) <= set(list_substrates())
    assert set(SMOKE_SPEC_BUILDERS) == set(BUILTINS)


def test_substrates_declare_capabilities():
    for name in BUILTINS:
        substrate = get_substrate(name)
        assert substrate.name == name
        caps = substrate.capabilities()
        assert set(caps) == {
            "supports_faults",
            "supports_arrivals",
            "supports_reception_engines",
            "scheduler_role",
        }
        assert substrate.describe()  # one-line doc for the CLI table
    assert get_substrate("rounds").scheduler_role == "seeded"
    assert get_substrate("radio").scheduler_role == "emergent"
    assert get_substrate("standard").supports_arrivals
    assert get_substrate("radio").supports_reception_engines
    assert get_substrate("sinr").supports_reception_engines
    assert not get_substrate("standard").supports_reception_engines


def test_unknown_substrate_is_rejected_with_known_names():
    with pytest.raises(ExperimentError, match="registered:.*standard"):
        ExperimentSpec(
            topology=TopologySpec("line", {"n": 4}), substrate="warp"
        )


def test_run_resolves_substrates_from_the_registry_only():
    # The generic loop must carry no hard-coded dispatch: every entry run
    # reaches is exactly a registry entry.
    import inspect

    import repro.experiments.runner as runner_module

    source = inspect.getsource(runner_module.run)
    assert "SUBSTRATES.get" in source
    for name in BUILTINS:
        assert f'"{name}"' not in source  # no per-substrate branching


# ----------------------------------------------------------------------
# Cross-substrate matrix: solved + deterministic on every engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SMOKE_SPEC_BUILDERS))
def test_substrate_matrix_solves_and_repeats(name: str):
    spec = smoke_spec(name)
    assert spec.substrate == name
    first = run(spec, RunOptions.summary())
    second = run(spec, RunOptions.summary())
    assert first.solved, f"substrate {name} smoke spec did not solve"
    assert first == second  # bitwise-deterministic summary
    assert first.metrics == second.metrics


def test_matrix_specs_validate_through_the_registry():
    for name in sorted(SMOKE_SPEC_BUILDERS):
        assert smoke_spec(name).validate().substrate == name


# ----------------------------------------------------------------------
# The substrate axis sweeps like any other (parallel == serial)
# ----------------------------------------------------------------------
def _sweepable_base() -> ExperimentSpec:
    return ExperimentSpec(
        name="substrate-axis",
        topology=TopologySpec(
            "random_geometric",
            {"n": 12, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(params={"max_slots": 200_000}),
        seed=5,
    )


def test_substrate_axis_parallel_sweep_equals_serial():
    specs = Sweep.grid(
        _sweepable_base(),
        axes={"substrate": ["standard", "radio", "sinr"]},
        repeats=2,
    )
    assert sorted({s.substrate for s in specs}) == ["radio", "sinr", "standard"]
    serial = run_sweep(specs, workers=1)
    parallel = run_sweep(specs, workers=2)
    assert len(serial) == len(parallel) == 6
    assert serial.results == parallel.results
    assert serial.solved_rate == 1.0


# ----------------------------------------------------------------------
# Result round-trip with non-finite metrics, per substrate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SMOKE_SPEC_BUILDERS))
def test_result_roundtrip_with_non_finite_metrics(name: str):
    result = run(smoke_spec(name), RunOptions.summary())
    spiked = dataclasses.replace(
        result,
        completion_time=math.inf,
        metrics={
            **result.metrics,
            "spiked_inf": math.inf,
            "spiked_ninf": -math.inf,
            "spiked_nan": math.nan,
        },
    )
    encoded = spiked.to_dict()
    assert encoded["completion_time"] == "inf"
    assert encoded["metrics"]["spiked_nan"] == "nan"
    decoded = ExperimentResult.from_dict(encoded)
    # One more round trip is byte-stable (nan breaks == on the object,
    # so compare the canonical encodings).
    assert decoded.to_dict() == encoded
    assert decoded.spec == spiked.spec
    assert math.isnan(decoded.metrics["spiked_nan"])
    assert decoded.metrics["spiked_ninf"] == -math.inf


# ----------------------------------------------------------------------
# Observations: one typed stream from every engine
# ----------------------------------------------------------------------
def test_every_substrate_emits_observations():
    for name in sorted(SMOKE_SPEC_BUILDERS):
        result = run(smoke_spec(name))
        assert result.observations, f"substrate {name} emitted no observations"
        kinds = {o.kind for o in result.observations}
        if name == "protocol":
            assert {"bcast", "rcv"} <= kinds
        else:
            assert {"bcast", "deliver"} <= kinds or "round" in kinds
        times = [o.time for o in result.observations]
        assert times == sorted(times)  # stream is chronological


def test_observations_match_instance_trace_on_standard():
    result = run(smoke_spec("standard"))
    from_stream = [
        (e.time, e.kind, e.node, e.iid)
        for e in from_observations(result.observations)
    ]
    from_instances = [
        (e.time, e.kind, e.node, e.iid)
        for e in flatten(result.raw.instances)
    ]
    assert from_stream == from_instances


def test_observations_dropped_on_summary_runs():
    result = run(smoke_spec("standard"), RunOptions.summary())
    assert result.observations == ()
    assert result.raw is None


@pytest.mark.parametrize("name", BUILTINS)
def test_summary_runs_keep_metrics_identical(name: str):
    """keep_raw=False drops the stream and raw handles on every builtin
    substrate without changing a single scalar metric."""
    full = run(smoke_spec(name, seed=5))
    summary = run(smoke_spec(name, seed=5), RunOptions.summary())
    assert full.observations
    assert summary.observations == ()
    assert summary.raw is None
    assert summary.solved == full.solved
    assert summary.metrics == full.metrics


def test_fault_timeline_appears_in_observations():
    spec = dataclasses.replace(
        smoke_spec("standard", seed=9),
        fault=FaultSpec("crash_random", {"fraction": 0.25}),
    )
    result = run(spec)
    assert any(o.kind == "crash" for o in result.observations)


# ----------------------------------------------------------------------
# Third-party registration + capability enforcement
# ----------------------------------------------------------------------
def test_registered_toy_substrate_is_spec_expressible_and_runs():
    assert "toy_noop" in SUBSTRATES
    spec = ExperimentSpec(
        name="toy",
        topology=TopologySpec("line", {"n": 5}),
        substrate="toy_noop",
        seed=1,
    )
    result = run(spec)
    assert result.solved
    assert result.metrics == {"nodes": 5.0}


def test_capability_mismatch_raises_clear_experiment_error():
    with pytest.raises(ExperimentError, match="supports_faults=False"):
        ExperimentSpec(
            name="toy-faulted",
            topology=TopologySpec("line", {"n": 5}),
            substrate="toy_noop",
            fault=FaultSpec("crash_random", {"fraction": 0.2}),
        )


@pytest.mark.parametrize("name", ["protocol", "rounds", "toy_noop"])
def test_arrival_workloads_rejected_on_time_zero_substrates(name: str):
    spec = ExperimentSpec(
        name="arrivals-rejected",
        topology=TopologySpec("line", {"n": 6}),
        algorithm=AlgorithmSpec(
            {"protocol": "flood_max", "rounds": "fmmb"}.get(name, "bmmb")
        ),
        workload=WorkloadSpec("staggered", {"count": 2, "spacing": 5.0}),
        substrate=name,
    )
    with pytest.raises(ExperimentError, match="time-0") as excinfo:
        run(spec)
    # The diagnostic names the offender, the workload kind, and which
    # registered substrates do take arrival schedules.
    message = str(excinfo.value)
    assert name in message
    assert "'staggered'" in message
    assert "arrival-capable substrates" in message


# ----------------------------------------------------------------------
# sinr specifics
# ----------------------------------------------------------------------
def test_sinr_requires_an_embedded_topology():
    spec = ExperimentSpec(
        name="sinr-star",
        topology=TopologySpec("star", {"n": 6}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"nodes": [1, 2]}),
        substrate="sinr",
    )
    with pytest.raises(MACError, match="embedded"):
        run(spec)


def test_sinr_runs_under_faults_and_reports_empirical_bounds():
    spec = dataclasses.replace(
        smoke_spec("sinr", seed=7),
        fault=FaultSpec("crash_random", {"fraction": 0.2}),
    )
    first = run(spec, RunOptions.summary())
    second = run(spec, RunOptions.summary())
    assert first == second
    assert "empirical_fack" in first.metrics
    assert "empirical_fprog" in first.metrics
    assert first.metrics["empirical_fack"] >= first.metrics["empirical_fprog"]
    assert "survivors" in first.metrics  # fault verdict among survivors


def test_sinr_model_params_are_sweepable():
    base = smoke_spec("sinr")
    specs = Sweep.grid(
        base, axes={"model.params.beta": [1.5, 2.0]}, repeats=1
    )
    sweep = run_sweep(specs)
    assert len(sweep) == 2
    assert all(r.solved for r in sweep)
