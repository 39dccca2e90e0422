"""Tests for persistent observation journals (repro.runtime.journal)."""

from __future__ import annotations

import gzip
import json

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
    run,
)
from repro.runtime.journal import (
    JOURNAL_FORMAT,
    JOURNAL_KIND,
    dump_journal,
    iter_journal,
    journal_lines,
    loads_journal,
    read_journal,
    write_journal,
)
from repro.runtime.observations import Observation
from repro.sim.rng import RandomSource


def _spec(seed=3, **overrides):
    fields = dict(
        name="test-journal",
        topology=TopologySpec(
            "random_geometric",
            {"n": 10, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(),
        seed=seed,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _stream():
    return (
        Observation(time=0.0, kind="bcast", node=0, key="m0", ref=0),
        Observation(time=0.5, kind="rcv", node=1, key="m0", ref=0),
        Observation(
            time=1.0, kind="deliver", node=1, key="m0", ref=-1, value=1.0
        ),
        Observation(time=1.0, kind="ack", node=0, key="m0", ref=0),
    )


# ----------------------------------------------------------------------
# Format
# ----------------------------------------------------------------------
def test_round_trip_preserves_stream_and_meta(tmp_path):
    path = tmp_path / "run.obs.jsonl.gz"
    count = write_journal(path, _stream(), meta={"spec_key": "abc"})
    assert count == 4
    journal = read_journal(path)
    assert journal.format == JOURNAL_FORMAT
    assert journal.meta == {"spec_key": "abc"}
    assert journal.observations == _stream()
    assert tuple(iter_journal(path)) == _stream()


def test_dump_is_byte_deterministic_and_order_canonical():
    stream = _stream()
    shuffled = (stream[2], stream[0], stream[3], stream[1])
    assert dump_journal(stream) == dump_journal(shuffled)
    assert dump_journal(stream) == dump_journal(stream)


def test_profile_records_excluded_by_default():
    stream = _stream() + (
        Observation(time=1.0, kind="profile", key="wall_s", ref=-1, value=2.5),
    )
    journal = loads_journal(
        gzip.decompress(dump_journal(stream)).decode("utf-8")
    )
    assert all(obs.kind != "profile" for obs in journal.observations)
    kept = loads_journal(
        gzip.decompress(dump_journal(stream, include_profile=True)).decode(
            "utf-8"
        )
    )
    assert any(obs.kind == "profile" for obs in kept.observations)


def test_non_finite_values_survive_strict_json():
    stream = (
        Observation(
            time=0.0, kind="round", key="r", ref=-1, value=float("inf")
        ),
    )
    text = gzip.decompress(dump_journal(stream)).decode("utf-8")
    for line in text.splitlines():
        json.loads(line)  # strict JSON: would reject bare Infinity
    loaded = loads_journal(text)
    assert loaded.observations[0].value == float("inf")


def test_plain_jsonl_journal_loads(tmp_path):
    header = {
        "format": JOURNAL_FORMAT,
        "kind": JOURNAL_KIND,
        "count": 1,
        "meta": {},
    }
    path = tmp_path / "hand.jsonl"
    path.write_text(
        json.dumps(header)
        + "\n"
        + json.dumps([0.0, "bcast", 0, "m0", 0, 1.0])
        + "\n"
    )
    journal = read_journal(path)
    assert len(journal) == 1
    assert journal.observations[0].kind == "bcast"


def test_malformed_journals_are_rejected(tmp_path):
    bad_kind = json.dumps({"format": 1, "kind": "nope", "count": 0, "meta": {}})
    with pytest.raises(ExperimentError, match="not an observation journal"):
        loads_journal(bad_kind)
    bad_count = json.dumps(
        {"format": 1, "kind": JOURNAL_KIND, "count": 5, "meta": {}}
    )
    with pytest.raises(ExperimentError, match="declares 5"):
        loads_journal(bad_count)
    with pytest.raises(ExperimentError, match="6-element"):
        loads_journal(
            json.dumps(
                {"format": 1, "kind": JOURNAL_KIND, "count": 1, "meta": {}}
            )
            + '\n["short"]'
        )
    with pytest.raises(ExperimentError, match="empty journal"):
        loads_journal("")
    truncated = tmp_path / "trunc.obs.jsonl.gz"
    truncated.write_bytes(dump_journal(_stream())[:20])
    with pytest.raises(ExperimentError, match="corrupt journal frame"):
        read_journal(truncated)


def test_unsupported_format_version_rejected():
    header = json.dumps(
        {"format": 99, "kind": JOURNAL_KIND, "count": 0, "meta": {}}
    )
    with pytest.raises(ExperimentError, match="format 99"):
        loads_journal(header)


def test_journal_lines_header_first_sorted_keys():
    lines = list(journal_lines(_stream(), meta={"b": 1, "a": 2}))
    header = json.loads(lines[0])
    assert header["count"] == len(lines) - 1
    assert lines[0].index('"a"') < lines[0].index('"b"')


# ----------------------------------------------------------------------
# run(spec, RunOptions(journal=...))
# ----------------------------------------------------------------------
def test_run_writes_a_loadable_journal_with_the_spec(tmp_path):
    spec = _spec()
    path = tmp_path / "run.obs.jsonl.gz"
    result = run(spec, RunOptions(keep_raw=False, journal=path))
    assert result.observations == ()  # journal mode does not leak the stream
    journal = read_journal(path)
    assert len(journal) > 0
    assert ExperimentSpec.from_dict(journal.meta["spec"]) == spec


def test_run_journal_matches_keep_raw_stream(tmp_path):
    spec = _spec()
    path = tmp_path / "run.obs.jsonl.gz"
    run(spec, RunOptions(keep_raw=False, journal=path))
    raw = run(spec)
    expected = tuple(
        obs for obs in raw.observations if obs.kind != "profile"
    )
    assert read_journal(path).observations == expected
    # Re-journaling the same spec+seed reproduces the exact bytes.
    again = tmp_path / "again.obs.jsonl.gz"
    run(spec, RunOptions(keep_raw=False, journal=again))
    assert path.read_bytes() == again.read_bytes()


def test_run_rejects_journal_with_windowed_probe(tmp_path):
    spec = _spec(
        workload=WorkloadSpec(
            "open_arrivals", {"process": "poisson", "rate": 0.02, "count": 5}
        )
    )
    with pytest.raises(ExperimentError, match="journal"):
        run(spec, RunOptions(window=10.0, journal=tmp_path / "x.gz"))


# ----------------------------------------------------------------------
# Profiling observations
# ----------------------------------------------------------------------
def test_keep_raw_runs_carry_profile_gauges_at_stream_end():
    result = run(_spec())
    profile = {
        obs.key: obs.value
        for obs in result.observations
        if obs.kind == "profile"
    }
    for gauge in (
        "wall_setup_s",
        "wall_execute_s",
        "events_per_s",
        "heap_blocks_delta",
        "rng_draws",
    ):
        assert gauge in profile, gauge
    assert profile["wall_execute_s"] >= 0.0
    # Hot paths bind ``raw`` RNG methods, which the wrapper-level draw
    # tally deliberately skips — so 0 is a legitimate reading here.
    assert profile["rng_draws"] >= 0.0
    times = [obs.time for obs in result.observations]
    assert times == sorted(times)


def test_profile_gauges_stay_out_of_metrics():
    spec = _spec()
    raw = run(spec)
    summary = run(spec, RunOptions.summary())
    assert raw.metrics == summary.metrics
    assert not any(key.startswith("wall_") for key in raw.metrics)


# ----------------------------------------------------------------------
# RNG draw accounting
# ----------------------------------------------------------------------
def test_random_source_counts_draws_across_children():
    root = RandomSource(7)
    child = root.child("a")
    before = root.draws
    child.random()
    root.randint(0, 5)
    child.child("b").random()
    assert root.draws == before + 3
    assert child.draws == root.draws  # one shared counter per tree
