"""The public API surface: everything in ``__all__`` exists and works."""

from __future__ import annotations

import importlib

import pytest

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ lists missing name {name}"


def test_version_is_semver_like():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    exported = {k for k in namespace if not k.startswith("__")}
    # Dunder entries like __version__ are filtered by the comprehension.
    assert exported == {n for n in repro.__all__ if not n.startswith("__")}


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.topology",
        "repro.topology.serialization",
        "repro.mac",
        "repro.mac.rounds",
        "repro.mac.schedulers",
        "repro.core",
        "repro.core.fmmb",
        "repro.core.problem",
        "repro.core.leader",
        "repro.core.consensus",
        "repro.core.structuring",
        "repro.radio",
        "repro.runtime",
        "repro.runtime.trace",
        "repro.analysis",
        "repro.analysis.ascii_art",
        "repro.experiments",
        "repro.experiments.specs",
        "repro.experiments.registries",
        "repro.experiments.runner",
        "repro.experiments.sweep",
        "repro.campaigns",
        "repro.campaigns.spec",
        "repro.campaigns.store",
        "repro.campaigns.executor",
        "repro.campaigns.checks",
        "repro.campaigns.report",
        "repro.campaigns.builtin",
        "repro.cli",
    ],
)
def test_submodules_import_cleanly(module):
    assert importlib.import_module(module) is not None


def test_quickstart_docstring_snippet_runs():
    """The package docstring's example must stay executable."""
    from repro import (
        ExperimentSpec,
        ModelSpec,
        RunOptions,
        SchedulerSpec,
        TopologySpec,
        WorkloadSpec,
        run,
    )

    spec = ExperimentSpec(
        topology=TopologySpec("random_geometric", {
            "n": 20, "side": 2.5, "c": 1.6, "grey_edge_probability": 0.4,
        }),
        workload=WorkloadSpec("single_source", {"count": 2}),
        scheduler=SchedulerSpec("contention"),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=7,
    )
    result = run(spec)
    assert result.solved
    summary = run(spec, RunOptions.summary())  # same result, no raw/stream
    assert summary == result and summary.raw is None


def test_experiment_api_is_exported():
    """The declarative experiment surface ships from the package root."""
    for name in (
        "ExperimentSpec",
        "TopologySpec",
        "SchedulerSpec",
        "AlgorithmSpec",
        "WorkloadSpec",
        "ModelSpec",
        "ExperimentResult",
        "RunOptions",
        "run",
        "run_sweep",
        "Sweep",
        "SweepResult",
        "materialize_topology",
        "list_topologies",
        "list_schedulers",
        "list_algorithms",
        "list_macs",
        "list_workloads",
        "register_topology",
        "register_scheduler",
        "register_algorithm",
        "register_mac",
        "register_workload",
    ):
        assert name in repro.__all__, f"{name} missing from repro.__all__"
        assert hasattr(repro, name)


def test_registry_listings_are_sorted_and_nonempty():
    import repro as pkg

    for lister in (
        pkg.list_topologies,
        pkg.list_schedulers,
        pkg.list_algorithms,
        pkg.list_macs,
        pkg.list_workloads,
    ):
        names = lister()
        assert names, f"{lister.__name__} returned nothing"
        assert names == sorted(names)


def test_errors_form_one_hierarchy():
    from repro import (
        AlgorithmError,
        AxiomViolation,
        ExperimentError,
        MACError,
        ReproError,
        SchedulerError,
        SimulationError,
        TopologyError,
        WellFormednessError,
    )

    for exc in (
        SimulationError,
        TopologyError,
        MACError,
        AlgorithmError,
        ExperimentError,
    ):
        assert issubclass(exc, ReproError)
    for exc in (WellFormednessError, AxiomViolation, SchedulerError):
        assert issubclass(exc, MACError)
