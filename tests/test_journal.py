"""Tests for persistent observation journals (repro.runtime.journal)."""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import pickle
import pickletools
import random
import struct
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import ResultStore, spec_key
from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    TopologySpec,
    Sweep,
    WorkloadSpec,
    run,
    run_sweep,
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
from repro.runtime.observations import (
    OBSERVATION_KINDS,
    Observation,
    ObservationStream,
    Probe,
)
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


def _hand_journal(*rows, meta=None):
    header = {"format": 1, "kind": JOURNAL_KIND, "count": len(rows)}
    header["meta"] = meta or {}
    return "\n".join([json.dumps(header), *rows]) + "\n"


#: Rows that parse as JSON arrays but whose fields cannot become an
#: Observation (list ref, non-numeric time, object node, unknown kind).
MALFORMED_ROWS = [
    '[0.0,"bcast",0,"m0",[0],1.0]',
    '["x","bcast",0,"m0",0,1.0]',
    '[0.0,"bcast",{},"m0",0,1.0]',
    '[0.0,"nope",0,"m0",0,1.0]',
]


@pytest.mark.parametrize("row", MALFORMED_ROWS)
def test_malformed_rows_raise_located_experiment_error(row):
    with pytest.raises(ExperimentError, match=r"^<journal>:2: bad observation row"):
        loads_journal(_hand_journal(row))


@pytest.mark.parametrize("row", MALFORMED_ROWS)
def test_malformed_row_counts_the_stored_journal_corrupt(tmp_path, row):
    store = ResultStore(str(tmp_path / "store"))
    spec = _spec()
    key = spec_key(spec)
    text = _hand_journal(row, meta={"spec_key": key})
    store.backend.put("journal", key, text.encode("utf-8"))
    assert store.get_journal(spec) is None
    assert store.stats.corrupt == 1


@pytest.mark.parametrize("row", MALFORMED_ROWS)
def test_trace_dump_of_malformed_row_exits_2(tmp_path, row, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(_hand_journal(row))
    assert main(["trace", "dump", str(path)]) == 2
    assert f"{path}:2: bad observation row" in capsys.readouterr().err


def test_rows_never_span_lines():
    # One JSON document split over two lines is two bad lines, even
    # though the joined text would parse.
    with pytest.raises(ExperimentError, match=r":2: bad journal line"):
        loads_journal(_hand_journal("[[1]", "[2]]"))


def test_padded_lines_load_and_trailing_data_is_rejected():
    row = '[0.0,"bcast",0,"m0",0,1.0]'
    padded = loads_journal(_hand_journal(f"  {row}\t"))
    assert padded.observations == loads_journal(_hand_journal(row)).observations
    with pytest.raises(ExperimentError, match=r":2: bad journal line: Extra data"):
        loads_journal(_hand_journal(f"{row} 7"))


def test_non_integer_header_count_is_an_experiment_error():
    header = {"format": 1, "kind": JOURNAL_KIND, "count": [1], "meta": {}}
    with pytest.raises(ExperimentError, match=r":1: bad journal header count"):
        loads_journal(json.dumps(header))


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
# Byte contract: golden text and the json.dumps reference encoder
# ----------------------------------------------------------------------
#: sha256 of the uncompressed journal of ``_spec(seed=3)`` (optionally
#: faulted), run with ``RunOptions.observed()`` and dumped with
#: ``meta={"spec": spec.to_dict()}``.  Pinned from the per-row
#: ``json.dumps`` encoder; the text (not the gzip bytes) is pinned so the
#: test holds across zlib builds.
GOLDEN_JOURNAL_TEXT = {
    "fault-free": (
        None,
        167,
        "c17d08b96792a5e5d463b4f8ed64f6241206271afc53fba83909e146c399c88a",
    ),
    "crash_random": (
        FaultSpec("crash_random", {"fraction": 0.2}),
        169,
        "2754636f9fa73fa1e61588b797ab368da1674ecf2b0e2d284174cccd944b0599",
    ),
}


def _gzip_one_write(text: bytes) -> bytes:
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0, compresslevel=9) as frame:
        frame.write(text)
    return buffer.getvalue()


@pytest.mark.parametrize("case", sorted(GOLDEN_JOURNAL_TEXT))
def test_journal_text_matches_golden_digest(case):
    fault, observations, digest = GOLDEN_JOURNAL_TEXT[case]
    spec = _spec(seed=3) if fault is None else _spec(seed=3, fault=fault)
    result = run(spec, RunOptions.observed())
    assert len(result.observations) == observations
    data = dump_journal(result.observations, meta={"spec": spec.to_dict()})
    text = gzip.decompress(data)
    assert hashlib.sha256(text).hexdigest() == digest
    # Chunked writes frame exactly like one write of the whole text.
    assert data == _gzip_one_write(text)


def _reference_number(value):
    if math.isfinite(value):
        return float(value)
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _reference_row(obs: Observation) -> str:
    """The original per-row encoder the direct renderer must match."""
    row = [
        _reference_number(obs.time),
        obs.kind,
        obs.node,
        obs.key,
        obs.ref,
        _reference_number(obs.value),
    ]
    return json.dumps(row, separators=(",", ":"))


def _reference_dump(observations, meta=None) -> bytes:
    kept = [obs for obs in observations if obs.kind != "profile"]
    kept.sort(key=Observation.sort_key)
    header = {
        "format": JOURNAL_FORMAT,
        "kind": JOURNAL_KIND,
        "count": len(kept),
        "meta": meta if meta is not None else {},
    }
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0, compresslevel=9) as frame:
        frame.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        frame.write(b"\n")
        for obs in kept:
            frame.write(_reference_row(obs).encode("utf-8"))
            frame.write(b"\n")
    return buffer.getvalue()


_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-320, 1e308, -1e308, 0.1]),
    st.integers(min_value=-(2**60), max_value=2**60),
)
_keys = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('\x00\t\n\r\x1f\x7f"\\/\x85\u2028\ufeff'),
    )
)
_observations = st.builds(
    Observation,
    time=_numbers,
    kind=st.sampled_from(OBSERVATION_KINDS),
    node=st.none() | st.integers(min_value=-(2**70), max_value=2**70),
    key=_keys,
    ref=st.integers(min_value=-(2**70), max_value=2**70),
    value=_numbers,
)


@given(stream=st.lists(_observations, max_size=12))
@settings(max_examples=120, deadline=None)
def test_direct_rows_match_the_json_dumps_reference(stream):
    lines = list(journal_lines(stream, include_profile=True))
    kept = sorted(stream, key=Observation.sort_key)
    assert lines[1:] == [_reference_row(obs) for obs in kept]


@given(stream=st.lists(_observations, max_size=12))
@settings(max_examples=40, deadline=None)
def test_dump_matches_the_reference_and_round_trips(stream):
    data = dump_journal(stream, meta={"k": "\u00e9"})
    assert data == _reference_dump(stream, meta={"k": "\u00e9"})
    # Decoding then re-encoding reproduces the bytes exactly.
    text = gzip.decompress(data).decode("utf-8")
    again = dump_journal(loads_journal(text).observations, meta={"k": "\u00e9"})
    assert again == data


def test_chunked_framing_matches_the_reference_past_one_chunk():
    stream = [
        Observation(time=i / 7.0, kind="rcv", node=i % 97, key=f"m{i % 13}", ref=i)
        for i in range(5_000)
    ]
    assert dump_journal(stream) == _reference_dump(stream)


# ----------------------------------------------------------------------
# The columnar stream
# ----------------------------------------------------------------------
#: ``_observations`` without NaN: a NaN never equals a copy of itself,
#: so value-equality after pickling holds only for NaN-free streams
#: (exactly as for a tuple of Observations).
_finite_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    st.integers(min_value=-(2**60), max_value=2**60),
)
_nan_free_observations = st.builds(
    Observation,
    time=_finite_numbers,
    kind=st.sampled_from(OBSERVATION_KINDS),
    node=st.none() | st.integers(min_value=-(2**70), max_value=2**70),
    key=_keys,
    ref=st.integers(min_value=-(2**70), max_value=2**70),
    value=_finite_numbers,
)


@given(stream=st.lists(_observations, max_size=16))
@settings(max_examples=80, deadline=None)
def test_stream_is_the_canonically_sorted_tuple(stream):
    expected = tuple(sorted(stream, key=Observation.sort_key))
    columnar = ObservationStream.of(stream)
    assert columnar == expected
    assert expected == columnar
    assert columnar == list(expected)
    assert tuple(columnar) == expected
    assert ObservationStream.of(columnar) is columnar


@given(stream=st.lists(_nan_free_observations, max_size=16))
@settings(max_examples=80, deadline=None)
def test_stream_pickles_as_columns_and_round_trips(stream):
    columnar = ObservationStream.of(stream)
    data = pickle.dumps(columnar)
    again = pickle.loads(data)
    assert isinstance(again, ObservationStream)
    assert again == columnar
    assert again == tuple(sorted(stream, key=Observation.sort_key))


def test_stream_pickle_ships_columns_not_objects():
    data = pickle.dumps(ObservationStream.of(_stream()))
    names = {arg for _op, arg, _pos in pickletools.genops(data) if isinstance(arg, str)}
    assert "ObservationStream" in names
    assert "Observation" not in names


@given(stream=st.lists(_observations, max_size=16), data=st.data())
@settings(max_examples=80, deadline=None)
def test_stream_indexes_and_slices_like_a_tuple(stream, data):
    expected = tuple(sorted(stream, key=Observation.sort_key))
    columnar = ObservationStream.of(stream)
    assert len(columnar) == len(expected)
    assert bool(columnar) == bool(expected)
    assert (columnar == ()) == (expected == ())
    for index in range(-len(expected), len(expected)):
        assert columnar[index] == expected[index]
    with pytest.raises(IndexError):
        columnar[len(expected)]
    window = data.draw(st.slices(len(expected) + 2))
    assert columnar[window] == expected[window]
    assert isinstance(columnar[window], tuple)


def test_empty_and_windowed_probe_streams_equal_the_empty_tuple():
    assert Probe().events() == ()
    assert () == Probe().events()
    assert Probe(window=1.0).events() == ()
    assert ObservationStream() == []
    assert ObservationStream() != (Observation(0.0, "bcast"),)


def test_probe_columns_match_per_event_emission():
    bulk, single = Probe(), Probe()
    deliveries = {(2, "m1"): 3.0, (0, "m0"): 1.5, (1, "m0"): 1.5}
    bulk.observe_deliveries(deliveries)
    for (node, mid), time in deliveries.items():
        single.emit("deliver", time, node, mid)
    assert bulk.events() == single.events()
    assert bulk.counts() == single.counts() == {"deliver": 3.0}
    assert bulk.count("deliver") == 3.0 and bulk.count("rcv") == 0
    with pytest.raises(ExperimentError, match="unknown observation kind"):
        Probe().emit("nope", 0.0)


def _random_observations(count, kinds, seed=11):
    rng = random.Random(seed)
    return [
        Observation(
            time=rng.choice((rng.random() * 50.0, float(rng.randrange(50)))),
            kind=kinds[rng.randrange(len(kinds))],
            node=None if rng.random() < 0.05 else rng.randrange(-2, 300),
            key=rng.choice(("m0", "m1", "0-1", "", "\u00e9")),
            ref=rng.randrange(-1, 4000),
            value=rng.choice((1.0, float("inf"), 2.5)),
        )
        for _ in range(count)
    ]


def _reference_text(observations, meta=None) -> bytes:
    kept = [obs for obs in observations if obs.kind != "profile"]
    kept.sort(key=Observation.sort_key)
    header = {
        "format": JOURNAL_FORMAT,
        "kind": JOURNAL_KIND,
        "count": len(kept),
        "meta": meta if meta is not None else {},
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines += [_reference_row(obs) for obs in kept]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _one_deflate_call(text: bytes) -> bytes:
    """The gzip member ``GzipFile(mtime=0, compresslevel=9)`` writes for
    ``text``: its 10-byte header (XFL 2, OS 0xff), one raw deflate
    stream over the whole text, then CRC-32 and size."""
    deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
    body = deflate.compress(text) + deflate.flush()
    header = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"
    trailer = struct.pack("<II", zlib.crc32(text), len(text) & 0xFFFFFFFF)
    return header + body + trailer


@pytest.mark.parametrize("rows", [0, 4096, 4097, 3 * 4096 + 5])
def test_stream_journal_bytes_match_one_deflate_call(rows):
    observations = _random_observations(
        rows, ("bcast", "rcv", "ack", "deliver", "crash")
    ) + _random_observations(7, ("profile",), seed=12)
    meta = {"rows": rows}
    data = dump_journal(ObservationStream.of(observations), meta=meta)
    assert data == dump_journal(list(observations), meta=meta)
    assert data == _one_deflate_call(_reference_text(observations, meta))
    assert len(loads_journal(gzip.decompress(data).decode("utf-8"))) == rows


def test_render_error_propagates_and_joins_the_deflate_thread():
    before = threading.active_count()
    bad = [Observation(time="soon", kind="bcast", node=0, key="m0", ref=0)]
    with pytest.raises(ValueError):
        dump_journal(bad)
    assert threading.active_count() == before
    assert dump_journal(_stream()) == _one_deflate_call(_reference_text(_stream()))


def test_concurrent_encoders_under_fast_thread_switching_stay_byte_exact():
    observations = _random_observations(3 * 4096 + 5, ("bcast", "rcv", "ack"))
    expected = _one_deflate_call(_reference_text(observations))
    results = [None] * 4

    def encode(slot):
        results[slot] = dump_journal(observations)

    threads = [threading.Thread(target=encode, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


def test_parallel_observed_sweep_streams_equal_the_serial_ones():
    specs = Sweep.seeds(_spec(), 3)
    serial = run_sweep(specs, options=RunOptions.observed())
    parallel = run_sweep(specs, workers=2, options=RunOptions.observed())
    assert len(serial) == len(parallel) == 3
    for one, other in zip(serial, parallel):
        assert isinstance(other.observations, ObservationStream)
        # Profile markers carry wall clocks; everything else is exact.
        assert one.observations.without("profile") == other.observations.without(
            "profile"
        )
        assert dump_journal(one.observations) == dump_journal(other.observations)


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
