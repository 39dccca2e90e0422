"""Persistent observation journals: deterministic gzip-framed JSONL.

An :class:`~repro.runtime.observations.Observation` stream normally dies
with the process; a *journal* is its durable form, compact enough to sit
next to every campaign point in the content-addressed store and strict
enough that two shards (or two machines) journaling the same spec+seed
produce **byte-identical** files.

Format (version :data:`JOURNAL_FORMAT`):

* the payload is UTF-8 JSON lines, gzip-framed with ``mtime=0`` and a
  pinned compression level so the bytes carry no timestamp or
  zlib-version drift;
* line 1 is a header object ``{"format", "kind", "count", "meta"}``
  serialized with sorted keys — ``meta`` is caller-supplied context
  (the experiment spec dict and its store key, for campaign journals);
* every following line is one observation as a compact 6-element array
  ``[time, kind, node, key, ref, value]`` with non-finite floats encoded
  as the strings ``"inf"`` / ``"-inf"`` / ``"nan"`` (strict JSON only);
* observations are written in canonical stream order
  (:meth:`Observation.sort_key`), and ``profile`` records are excluded
  by default — wall-clock and heap gauges are machine-dependent and
  would break cross-machine byte identity.

Encoding works on columns, never on :class:`Observation` objects.  Any
input becomes one :class:`~repro.runtime.observations.ObservationStream`
(a probe's stream already is one, already in canonical order, so it is
never sorted twice), and rows are rendered straight from its time, kind,
node, key, ref and value columns, :data:`_CHUNK_ROWS` rows at a time.
The text is exactly what ``json.dumps(row, separators=(",", ":"))``
would produce per row: ``float.__repr__`` (or a quoted non-finite name)
for times and values, ``int.__repr__`` for nodes and refs, ``null`` for
a missing node, ``encode_basestring_ascii`` for kinds and keys.

Deflate runs on one background thread: the rendering thread hands each
encoded chunk to it through a bounded queue and renders the next chunk
while zlib (which releases the GIL) compresses the previous one.  The
thread owns the single :class:`gzip.GzipFile` (level 9, ``mtime=0``) and
is joined before the encoder returns.  The bytes are unchanged by both
the chunking and the thread: deflate output depends only on the byte
sequence, never on where the writes split, and one stream receives the
chunks in order.  The frame comes from :class:`gzip.GzipFile`, whose
header (OS byte ``0xff``) is part of the byte contract —
:func:`gzip.compress` writes a different header on some Python versions.

Decoding parses line by line, so a row that spans two lines is an
error, never silently joined; every malformed line raises
:class:`~repro.errors.ExperimentError` naming ``where:lineno``.

Readers sniff the gzip magic, so a hand-written plain-text ``.jsonl``
journal (useful for synthesizing violation fixtures in tests) loads
through the same functions.
"""

from __future__ import annotations

import gzip
import io
import json
import queue
import threading
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ExperimentError
from repro.runtime.observations import (
    OBSERVATION_KINDS,
    Observation,
    ObservationStream,
)

#: Journal schema version; bump on any incompatible layout change.
JOURNAL_FORMAT = 1

#: Header ``kind`` discriminator (guards against feeding arbitrary JSONL).
JOURNAL_KIND = "observation-journal"

_GZIP_MAGIC = b"\x1f\x8b"

# Pinned framing parameters: gzip output is only byte-stable across
# machines when the embedded mtime is fixed and the level is explicit.
_GZIP_MTIME = 0
_GZIP_LEVEL = 9

#: Rows per ``GzipFile.write``: large enough that framing overhead
#: vanishes, small enough that the encoder never holds the whole text.
_CHUNK_ROWS = 4096

#: Encoded chunks that may wait for the deflate thread; bounds the
#: encoder's memory when rendering outpaces compression.
_QUEUE_CHUNKS = 4

#: Quoted kind names, indexed by kind code.
_KIND_TEXT = tuple(encode_basestring_ascii(kind) for kind in OBSERVATION_KINDS)
_NON_FINITE_TEXT = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}
_float_repr = float.__repr__
_int_repr = int.__repr__
_decoder = json.JSONDecoder()


@dataclass(frozen=True)
class Journal:
    """One loaded journal: header metadata plus the observation stream."""

    format: int
    meta: dict
    observations: tuple[Observation, ...]

    def __len__(self) -> int:
        return len(self.observations)


def _number_texts(column: Iterable[float]) -> list[str]:
    """Float fields as strict JSON: reprs, or quoted non-finite names."""
    texts = list(map(_float_repr, map(float, column)))
    if "inf" in texts or "-inf" in texts or "nan" in texts:
        texts = [_NON_FINITE_TEXT.get(text, text) for text in texts]
    return texts


def _chunk_texts(stream: ObservationStream) -> Iterator[str]:
    """The stream's rows, :data:`_CHUNK_ROWS` newline-terminated lines
    per chunk, rendered from its columns."""
    time, code, node, key, ref, value = stream.columns
    for start in range(0, len(time), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        nodes = node[rows]
        node_text = {n: "null" if n is None else _int_repr(n) for n in set(nodes)}
        fields = zip(
            _number_texts(time[rows]),
            map(_KIND_TEXT.__getitem__, code[rows]),
            map(node_text.__getitem__, nodes),
            map(encode_basestring_ascii, key[rows]),
            map(_int_repr, ref[rows]),
            _number_texts(value[rows]),
        )
        yield "[" + "]\n[".join(map(",".join, fields)) + "]\n"


def _kept(
    observations: Iterable[Observation], include_profile: bool
) -> ObservationStream:
    stream = ObservationStream.of(observations)
    return stream if include_profile else stream.without("profile")


def _header_text(meta: dict | None, count: int) -> str:
    header = {
        "format": JOURNAL_FORMAT,
        "kind": JOURNAL_KIND,
        "count": count,
        "meta": meta if meta is not None else {},
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":"))


def journal_lines(
    observations: Iterable[Observation],
    meta: dict | None = None,
    include_profile: bool = False,
) -> Iterator[str]:
    """The journal's JSON lines (header first), in canonical order.

    ``profile`` observations are filtered out unless ``include_profile``
    — their values (wall time, heap churn) vary across machines and
    would defeat byte-identical journals.
    """
    stream = _kept(observations, include_profile)
    rows = (text.split("\n")[:-1] for text in _chunk_texts(stream))
    return chain((_header_text(meta, len(stream)),), chain.from_iterable(rows))


def _encode(
    observations: Iterable[Observation],
    meta: dict | None,
    include_profile: bool,
) -> tuple[bytes, int]:
    """Journal bytes plus the observation count in the header.

    The calling thread renders chunks; one deflate thread compresses
    them in order into the single gzip frame.
    """
    stream = _kept(observations, include_profile)
    buffer = io.BytesIO()
    chunks: queue.Queue[bytes | None] = queue.Queue(maxsize=_QUEUE_CHUNKS)
    failure: list[BaseException] = []

    def deflate() -> None:
        data: bytes | None = b""
        try:
            with gzip.GzipFile(
                fileobj=buffer,
                mode="wb",
                mtime=_GZIP_MTIME,
                compresslevel=_GZIP_LEVEL,
            ) as frame:
                while (data := chunks.get()) is not None:
                    frame.write(data)
        except BaseException as exc:  # re-raised by the rendering thread
            failure.append(exc)
            while data is not None:  # drain, so the renderer never blocks
                data = chunks.get()

    worker = threading.Thread(target=deflate, name="journal-deflate", daemon=True)
    worker.start()
    try:
        chunks.put((_header_text(meta, len(stream)) + "\n").encode("utf-8"))
        for text in _chunk_texts(stream):
            chunks.put(text.encode("utf-8"))
    finally:
        chunks.put(None)
        worker.join()
    if failure:
        raise failure[0]
    return buffer.getvalue(), len(stream)


def dump_journal(
    observations: Iterable[Observation],
    meta: dict | None = None,
    include_profile: bool = False,
) -> bytes:
    """Serialize a stream to deterministic gzip-framed journal bytes."""
    return _encode(observations, meta, include_profile)[0]


def write_journal(
    path: str | Path,
    observations: Iterable[Observation],
    meta: dict | None = None,
    include_profile: bool = False,
) -> int:
    """Write a journal file; returns the observation count written.

    The file holds exactly :func:`dump_journal`'s bytes; the count is the
    number of observations kept (``profile`` records excluded unless
    ``include_profile``), known from encoding — nothing is read back.
    """
    data, count = _encode(observations, meta, include_profile)
    Path(path).write_bytes(data)
    return count


def _journal_text(path: str | Path) -> str:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ExperimentError(f"{path}: cannot read journal: {exc}") from exc
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise ExperimentError(f"{path}: corrupt journal frame: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExperimentError(f"{path}: journal is not UTF-8: {exc}") from exc


def _header_int(header: dict, field: str, where: str) -> int:
    try:
        return int(header.get(field, -1))
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"{where}:1: bad journal header {field}: {exc}") from exc


def loads_journal(text: str, where: str = "<journal>") -> Journal:
    """Parse journal text (header line + observation lines).

    Every malformed line — bad JSON, not a 6-element array, a field of
    the wrong type, an unknown kind — raises
    :class:`~repro.errors.ExperimentError` naming ``where:lineno``
    (``lineno`` counts non-blank lines, header included).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ExperimentError(f"{where}: empty journal")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"{where}:1: bad journal header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != JOURNAL_KIND:
        raise ExperimentError(
            f"{where}: not an observation journal (missing "
            f"kind={JOURNAL_KIND!r} header)"
        )
    fmt = _header_int(header, "format", where)
    if fmt != JOURNAL_FORMAT:
        raise ExperimentError(
            f"{where}: journal format {fmt} unsupported "
            f"(this build reads format {JOURNAL_FORMAT})"
        )
    observations: list[Observation] = []
    append = observations.append
    for lineno, line in enumerate(islice(lines, 1, None), start=2):
        try:
            row, end = _decoder.scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            # Padding, trailing data or a syntax error: the full decoder
            # accepts or rejects the line exactly as ``json.loads`` would.
            try:
                row = _decoder.decode(line)
            except json.JSONDecodeError as exc:
                raise ExperimentError(
                    f"{where}:{lineno}: bad journal line: {exc}"
                ) from exc
        if not isinstance(row, list) or len(row) != 6:
            raise ExperimentError(
                f"{where}:{lineno}: journal line is not a 6-element "
                "observation array"
            )
        time, kind, node, key, ref, value = row
        try:
            append(
                Observation(
                    float(time),
                    str(kind),
                    None if node is None else int(node),
                    str(key),
                    int(ref),
                    float(value),
                )
            )
        except (TypeError, ValueError, OverflowError, ExperimentError) as exc:
            raise ExperimentError(
                f"{where}:{lineno}: bad observation row: {exc}"
            ) from exc
    count = _header_int(header, "count", where)
    if count != len(observations):
        raise ExperimentError(
            f"{where}: header declares {count} observations, "
            f"found {len(observations)}"
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ExperimentError(f"{where}: journal meta must be an object")
    return Journal(
        format=fmt, meta=meta, observations=tuple(observations)
    )


def read_journal(path: str | Path) -> Journal:
    """Load a journal file (gzip-framed or plain JSONL)."""
    return loads_journal(_journal_text(path), where=str(path))


def iter_journal(path: str | Path) -> Iterator[Observation]:
    """Iterate a journal's observations (loads eagerly; order preserved)."""
    return iter(read_journal(path).observations)
