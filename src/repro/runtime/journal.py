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

Encoding renders each row string directly (no per-row ``json.dumps``;
the text is exactly what ``json.dumps(row, separators=(",", ":"))``
would produce) and feeds the whole payload to one deflate stream in
chunks of :data:`_CHUNK_ROWS` lines.  Deflate output depends only on
the byte sequence, never on where the writes split, so the chunking is
invisible in the file and only bounds the encoder's memory.  The frame
comes from :class:`gzip.GzipFile`, whose header (OS byte ``0xff``) is
part of the byte contract — :func:`gzip.compress` writes a different
header on some Python versions.

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
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ExperimentError
from repro.runtime.observations import OBSERVATION_KINDS, Observation

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

_fields = attrgetter("time", "kind", "node", "key", "ref", "value")
_KIND_TEXT = {kind: encode_basestring_ascii(kind) for kind in OBSERVATION_KINDS}
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


def _number_text(value: float) -> str:
    """A float field as strict JSON: its repr, or a quoted non-finite name."""
    value = float(value)
    if value - value == 0.0:  # finite
        return _float_repr(value)
    if value != value:
        return '"nan"'
    return '"inf"' if value > 0 else '"-inf"'


def _row_text(obs: Observation) -> str:
    """One observation's journal line (without the newline).

    Byte-identical to ``json.dumps([time, kind, node, key, ref, value],
    separators=(",", ":"))`` with non-finite floats as strings, for the
    field types :class:`Observation` declares.
    """
    time, kind, node, key, ref, value = _fields(obs)
    node_text = "null" if node is None else _int_repr(node)
    return (
        f"[{_number_text(time)},{_KIND_TEXT[kind]},{node_text},"
        f"{encode_basestring_ascii(key)},{_int_repr(ref)},{_number_text(value)}]"
    )


def _lines(
    observations: Iterable[Observation],
    meta: dict | None,
    include_profile: bool,
) -> tuple[int, Iterator[str]]:
    """The kept observation count and the journal's lines, header first."""
    kept = [
        obs
        for obs in observations
        if include_profile or obs.kind != "profile"
    ]
    kept.sort(key=Observation.sort_key)
    header = {
        "format": JOURNAL_FORMAT,
        "kind": JOURNAL_KIND,
        "count": len(kept),
        "meta": meta if meta is not None else {},
    }
    header_text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return len(kept), chain((header_text,), map(_row_text, kept))


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
    return _lines(observations, meta, include_profile)[1]


def _encode(
    observations: Iterable[Observation],
    meta: dict | None,
    include_profile: bool,
) -> tuple[bytes, int]:
    """Journal bytes plus the observation count in the header."""
    count, lines = _lines(observations, meta, include_profile)
    buffer = io.BytesIO()
    with gzip.GzipFile(
        fileobj=buffer, mode="wb", mtime=_GZIP_MTIME, compresslevel=_GZIP_LEVEL
    ) as frame:
        while chunk := list(islice(lines, _CHUNK_ROWS)):
            chunk.append("")  # trailing newline
            frame.write("\n".join(chunk).encode("utf-8"))
    return buffer.getvalue(), count


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
    raw = Path(path).read_bytes()
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
