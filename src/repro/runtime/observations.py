"""The typed observation stream every execution substrate emits through.

An execution, whatever engine ran it, is observable as one flat stream of
:class:`Observation` records — MAC events (``bcast`` / ``rcv`` / ``ack`` /
``abort``), MMB outputs (``deliver``), environment inputs (``arrival``),
substrate clock markers (``round`` / ``slot``), and fault transitions
(``crash`` / ``recover`` / ``join`` / ``leave`` / ``link_up`` /
``link_down``), and run-level profiling markers (``profile``, emitted by
the runner with wall-time / throughput / heap gauges as ``key``/``value``
pairs).  The :class:`Probe` collects the stream plus the scalar
gauges that become :attr:`ExperimentResult.metrics
<repro.experiments.ExperimentResult.metrics>`, replacing the per-substrate
ad-hoc metrics assembly with one documented surface.

The stream is stored as *columns*, not objects.  A probe appends each
event's six fields to parallel lists (time, kind code, node, key, ref,
value) — :meth:`Probe.observe_instances` and
:meth:`Probe.observe_deliveries` extend them in bulk — and
:meth:`Probe.events` returns one immutable :class:`ObservationStream`:
the columns permuted once into canonical :meth:`Observation.sort_key`
order.  The stream is a ``Sequence[Observation]``; iterating or indexing
it builds :class:`Observation` values lazily, it compares equal to any
sequence holding the same observations (``stream == ()`` holds for an
empty one), and it pickles as its columns, so shipping a run's stream
between processes never pickles one object per event.  The journal
encoder (:mod:`repro.runtime.journal`) renders rows straight from the
columns.  The columns hold the field values themselves (lists while a
probe captures, tuples in a stream), so every value an
:class:`Observation` can hold (int or float times, ``None`` nodes,
arbitrarily large refs, non-finite floats) survives unchanged.

Consumers:

* :class:`~repro.experiments.ExperimentResult` carries the stream in its
  ``observations`` field (``keep_raw=True`` runs only) and its ``metrics``
  are exactly the probe's gauges;
* :func:`repro.runtime.trace.from_observations` converts the MAC-event
  subset into :class:`~repro.runtime.trace.TraceEvent` records for the
  chronological trace tooling;
* campaign checks read the gauges by name (``metric:<gauge>`` series).

High-frequency clocks are summarized, not enumerated: the ``round`` and
``slot`` kinds appear once per execution as an aggregate marker whose
``value`` is the count (a 200k-slot radio run must not materialize 200k
records).  Every other kind is one record per event.

The probe never perturbs execution: substrates emit observations *after*
the engine has run (derived from instance logs, delivery tables, and fault
plans), so enabling observation capture cannot change a single RNG draw.

Long-horizon service runs use the *windowed* mode
(``Probe(window=..., max_windows=...)``): each emitted event is folded
into a fixed-width time-window aggregate instead of being retained, and
at most ``max_windows`` aggregates are kept (oldest evicted first), so
observation memory is O(window count), not O(horizon).  Exact per-kind
totals survive eviction; the raw stream does not — windowed probes
report ``events() == ()`` and summarize through :meth:`Probe.windows`
and the ``obs_*`` gauges merged into :meth:`Probe.metrics`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import ExperimentError
from repro.ids import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.engine import FaultEngine
    from repro.mac.messages import MessageInstance

#: Every observation kind a substrate may emit, in canonical tie-break
#: order (events at equal times sort by this order, then key, then node).
OBSERVATION_KINDS: tuple[str, ...] = (
    "arrival",
    "bcast",
    "rcv",
    "deliver",
    "ack",
    "abort",
    "round",
    "slot",
    "crash",
    "recover",
    "join",
    "leave",
    "link_up",
    "link_down",
    "profile",
)

_KIND_ORDER = {kind: index for index, kind in enumerate(OBSERVATION_KINDS)}


def _unknown_kind(kind: object) -> ExperimentError:
    return ExperimentError(
        f"unknown observation kind {kind!r}; one of "
        f"{', '.join(OBSERVATION_KINDS)}"
    )


def _kind_code(kind: str) -> int:
    """A kind's canonical tie-break rank (its column code)."""
    code = _KIND_ORDER.get(kind)
    if code is None:
        raise _unknown_kind(kind)
    return code


@dataclass(frozen=True)
class Observation:
    """One typed event of an execution, substrate-independent.

    Attributes:
        time: Event time in the substrate's time unit (simulated time, or
            slots × slot duration on the slotted substrates).
        kind: One of :data:`OBSERVATION_KINDS`.
        node: The acting node (receiver for ``rcv``/``deliver``, sender
            otherwise); ``None`` for node-less markers like ``round``.
        key: A stable label — message id for ``deliver``/``arrival``,
            payload tag for MAC events, ``"u-v"`` for link transitions.
        ref: Message-instance id for MAC events (``-1`` otherwise), so the
            stream converts losslessly to trace events.
        value: Magnitude; ``1.0`` for point events, the aggregate count
            for ``round``/``slot`` markers.
    """

    time: Time
    kind: str
    node: NodeId | None = None
    key: str = ""
    ref: int = -1
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise _unknown_kind(self.kind)

    def sort_key(self) -> tuple:
        node = self.node if self.node is not None else -1
        return (self.time, _KIND_ORDER[self.kind], self.ref, node, self.key)


_BCAST, _RCV, _DELIVER, _ACK, _ABORT = map(
    _kind_code, ("bcast", "rcv", "deliver", "ack", "abort")
)
_first, _second = itemgetter(0), itemgetter(1)


def _permuted(column: Sequence, order: list[int]) -> tuple:
    """``column`` reordered by ``order`` as a tuple."""
    if len(order) < 2:
        return tuple(column[i] for i in order)
    return itemgetter(*order)(column)


def _built(columns: tuple[Sequence, ...]) -> Iterator[Observation]:
    """Observations built on demand from (time, code, node, key, ref,
    value) columns."""
    time, code, node, key, ref, value = columns
    kinds = map(OBSERVATION_KINDS.__getitem__, code)
    return map(Observation, time, kinds, node, key, ref, value)


class ObservationStream(Sequence):
    """An immutable observation stream stored as six parallel columns.

    The columns — time, kind code (the kind's index in
    :data:`OBSERVATION_KINDS`), node, key, ref, value — are tuples in
    canonical :meth:`Observation.sort_key` order.  Build one with
    :meth:`from_columns` (sorts) or :meth:`of` (any iterable of
    observations); :meth:`Probe.events` returns one.

    The stream behaves as a ``tuple[Observation, ...]``: ``len``,
    iteration, indexing and slicing (a slice is a tuple) build
    :class:`Observation` values lazily, and ``==`` holds against any
    sequence of equal observations.  Pickling ships the columns.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[tuple, ...] = ((),) * 6) -> None:
        # Trusted: ``columns`` are already canonical (use the
        # classmethods to build a stream from unsorted data).
        self.columns = columns

    @classmethod
    def from_columns(
        cls,
        time: Sequence,
        code: Sequence[int],
        node: Sequence,
        key: Sequence[str],
        ref: Sequence[int],
        value: Sequence[float],
    ) -> "ObservationStream":
        """Sort unordered columns into a stream with one permutation.

        The permutation is a stable sort on exactly the
        :meth:`Observation.sort_key` tuples, so the result equals
        ``sorted(observations, key=Observation.sort_key)``.
        """
        nodes = [-1 if n is None else n for n in node]
        keys = list(zip(time, code, ref, nodes, key))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return cls(
            tuple(
                _permuted(column, order)
                for column in (time, code, node, key, ref, value)
            )
        )

    @classmethod
    def of(cls, observations: Iterable[Observation]) -> "ObservationStream":
        """Any iterable of observations as a canonical stream (a stream is
        returned as is)."""
        if isinstance(observations, cls):
            return observations
        items = list(observations)
        return cls.from_columns(
            [o.time for o in items],
            [_KIND_ORDER[o.kind] for o in items],
            [o.node for o in items],
            [o.key for o in items],
            [o.ref for o in items],
            [o.value for o in items],
        )

    # ------------------------------------------------------------------
    # Column operations (no Observation is built)
    # ------------------------------------------------------------------
    def without(self, kind: str) -> "ObservationStream":
        """The stream minus every observation of ``kind`` (still canonical)."""
        code = _kind_code(kind)
        codes = self.columns[1]
        if code not in codes:
            return self
        keep = [c != code for c in codes]
        return ObservationStream(
            tuple(tuple(compress(column, keep)) for column in self.columns)
        )

    def merged(self, observations: Iterable[Observation]) -> "ObservationStream":
        """This stream plus ``observations``, in canonical order.

        Rows that all sort after the last one (the runner's ``profile``
        markers) are appended without re-sorting the stream.
        """
        extra = ObservationStream.of(observations)
        if not extra:
            return self
        if not self or self._sort_key(-1) <= extra._sort_key(0):
            return ObservationStream(
                tuple(a + b for a, b in zip(self.columns, extra.columns))
            )
        return ObservationStream.from_columns(
            *(a + b for a, b in zip(self.columns, extra.columns))
        )

    def _sort_key(self, index: int) -> tuple:
        time, code, node, key, ref, _value = (c[index] for c in self.columns)
        return (time, code, ref, -1 if node is None else node, key)

    # ------------------------------------------------------------------
    # Sequence protocol (Observations built lazily)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Observation]:
        return _built(self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(_built(tuple(c[index] for c in self.columns)))
        time, code, node, key, ref, value = (c[index] for c in self.columns)
        return Observation(time, OBSERVATION_KINDS[code], node, key, ref, value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObservationStream):
            return self.columns == other.columns
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return (ObservationStream, (self.columns,))

    def __repr__(self) -> str:
        return f"ObservationStream({len(self)} observations)"


def _payload_tag(payload: object) -> str:
    """A stable string label for an instance payload."""
    mid = getattr(payload, "mid", None)
    if mid is not None:
        return str(mid)
    return str(payload)


@dataclass(frozen=True)
class WindowAggregate:
    """One time window's folded observation totals (windowed probes).

    Attributes:
        index: Window index (``int(time // window)``).
        start: Window start time (``index * window``).
        end: Window end time (exclusive).
        events: Total observation ``value`` folded into the window.
        counts: Per-kind ``value`` totals within the window.
    """

    index: int
    start: Time
    end: Time
    events: float
    counts: dict[str, float]


class _WindowBucket:
    """Mutable accumulator behind one :class:`WindowAggregate`."""

    __slots__ = ("events", "counts")

    def __init__(self) -> None:
        self.events = 0.0
        self.counts: dict[str, float] = {}

    def fold(self, kind: str, value: float) -> None:
        self.events += value
        self.counts[kind] = self.counts.get(kind, 0.0) + value


class Probe:
    """Collects one execution's observation stream and scalar gauges.

    Substrates create one probe per execution, derive observations from
    the engine's native records once it has run, and register their
    summary scalars as *gauges* — :meth:`metrics` returns exactly the
    gauge dict, which becomes ``ExperimentResult.metrics`` unchanged.

    With ``window`` set the probe runs *windowed*: emits fold into
    per-window aggregates (no raw :class:`Observation` retained) and at
    most ``max_windows`` aggregates are kept, evicting the oldest window
    first.  Eviction loses that window's breakdown but not the exact
    per-kind totals, which are tracked separately.

    Args:
        window: Window width in substrate time units; ``None`` (default)
            retains the full raw stream.
        max_windows: Bound on retained window aggregates; requires
            ``window``; ``None`` keeps every window.
    """

    def __init__(
        self, window: float | None = None, max_windows: int | None = None
    ) -> None:
        if window is not None and window <= 0:
            raise ExperimentError(
                f"observation window must be positive, got {window}"
            )
        if max_windows is not None:
            if window is None:
                raise ExperimentError(
                    "max_windows requires a window width"
                )
            if int(max_windows) < 1:
                raise ExperimentError(
                    f"max_windows must be >= 1, got {max_windows}"
                )
        self.window = float(window) if window is not None else None
        self.max_windows = int(max_windows) if max_windows is not None else None
        # The raw stream as columns: time, kind code, node, key, ref, value.
        self._columns: tuple[list, ...] = ([], [], [], [], [], [])
        self._gauges: dict[str, float] = {}
        self._series: dict[str, tuple[tuple[float, float], ...]] = {}
        self._buckets: dict[int, _WindowBucket] = {}
        self._kind_totals: dict[str, float] = {}
        self._folded = 0.0
        self._evicted = 0
        self._peak_retained = 0

    @property
    def windowed(self) -> bool:
        """Whether this probe folds events instead of retaining them."""
        return self.window is not None

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        time: Time,
        node: NodeId | None = None,
        key: str = "",
        ref: int = -1,
        value: float = 1.0,
    ) -> None:
        """Record one observation (kind-checked); windowed probes fold it
        into the window aggregate instead of retaining it."""
        code = _kind_code(kind)
        if self.window is None:
            for column, field in zip(
                self._columns, (time, code, node, key, ref, value)
            ):
                column.append(field)
            return
        index = int(time // self.window)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _WindowBucket()
            if (
                self.max_windows is not None
                and len(self._buckets) > self.max_windows
            ):
                # Emission is post-run and not chronological, so evict the
                # oldest window rather than assuming a moving frontier.
                del self._buckets[min(self._buckets)]
                self._evicted += 1
            self._peak_retained = max(self._peak_retained, len(self._buckets))
        bucket.fold(kind, value)
        self._kind_totals[kind] = self._kind_totals.get(kind, 0.0) + value
        self._folded += value

    def gauge(self, name: str, value: float) -> None:
        """Register one scalar metric (last write wins)."""
        self._gauges[name] = float(value)

    def gauges(self, values: dict[str, float]) -> None:
        """Register several scalar metrics at once."""
        for name, value in values.items():
            self.gauge(name, value)

    def set_series(
        self, name: str, points: Iterable[tuple[float, float]]
    ) -> None:
        """Register one named (x, y) series (last write wins).

        Series are the non-scalar companion to gauges — per-window
        latency/throughput curves and similar shapes that a single float
        cannot carry.  They surface as ``ExperimentResult.series`` and as
        ``series:<name>`` figure inputs in campaigns; they are *not*
        merged into :meth:`metrics`.
        """
        self._series[name] = tuple(
            (float(x), float(y)) for x, y in points
        )

    def series(self) -> dict[str, tuple[tuple[float, float], ...]]:
        """Every registered series, keyed by name."""
        return dict(self._series)

    # ------------------------------------------------------------------
    # Derivation helpers (post-run, never during execution)
    # ------------------------------------------------------------------
    def observe_instances(self, instances: Iterable["MessageInstance"]) -> None:
        """Emit ``bcast``/``rcv``/``ack``/``abort`` from a MAC instance log.

        Per instance the rows are its ``bcast``, every ``rcv`` (receiver
        order), then its ``ack`` and ``abort``; a raw probe extends its
        columns with them in bulk.
        """
        if self.window is None:
            self._extend_instances(instances)
            return
        for inst in instances:
            tag = _payload_tag(inst.payload)
            self.emit("bcast", inst.bcast_time, inst.sender, tag, inst.iid)
            for receiver, rtime in inst.rcv_times.items():
                self.emit("rcv", rtime, receiver, tag, inst.iid)
            if inst.ack_time is not None:
                self.emit("ack", inst.ack_time, inst.sender, tag, inst.iid)
            if inst.abort_time is not None:
                self.emit("abort", inst.abort_time, inst.sender, tag, inst.iid)

    def _extend_instances(self, instances: Iterable["MessageInstance"]) -> None:
        times, codes, nodes, keys, refs, values = self._columns
        for inst in instances:
            tag = _payload_tag(inst.payload)
            iid = inst.iid
            rcv = inst.rcv_times
            codes.append(_BCAST)
            times.append(inst.bcast_time)
            nodes.append(inst.sender)
            if rcv:
                count = len(rcv) + 1
                codes.extend(repeat(_RCV, count - 1))
                times.extend(rcv.values())
                nodes.extend(rcv)
            else:
                count = 1
            for code, time in ((_ACK, inst.ack_time), (_ABORT, inst.abort_time)):
                if time is not None:
                    codes.append(code)
                    times.append(time)
                    nodes.append(inst.sender)
                    count += 1
            keys.extend(repeat(tag, count))
            refs.extend(repeat(iid, count))
            values.extend(repeat(1.0, count))

    def observe_deliveries(
        self, times: dict[tuple[NodeId, str], Time]
    ) -> None:
        """Emit one ``deliver`` per MMB delivery table entry."""
        if self.window is not None:
            for (node, mid), time in times.items():
                self.emit("deliver", time, node, mid)
            return
        count = len(times)
        column_times, codes, nodes, keys, refs, values = self._columns
        codes.extend(repeat(_DELIVER, count))
        column_times.extend(times.values())
        nodes.extend(map(_first, times))
        keys.extend(map(_second, times))
        refs.extend(repeat(-1, count))
        values.extend(repeat(1.0, count))

    def observe_arrivals(
        self, arrivals: Iterable[tuple[NodeId, str, Time]]
    ) -> None:
        """Emit one ``arrival`` per environment input (node, mid, time)."""
        for node, mid, time in arrivals:
            self.emit("arrival", time, node, mid)

    def observe_fault_plan(self, engine: "FaultEngine") -> None:
        """Emit the fault timeline (crash/join/leave/link transitions)."""
        for event in engine.plan.events:
            if event.node is not None:
                self.emit(event.kind.value, event.time, event.node)
            else:
                u, v = event.edge
                self.emit(event.kind.value, event.time, None, f"{u}-{v}")

    def observe_clock(self, kind: str, count: int, end_time: Time) -> None:
        """Emit the aggregate ``round``/``slot`` marker for an execution."""
        if kind not in ("round", "slot"):
            raise ExperimentError(
                f"clock marker must be 'round' or 'slot', got {kind!r}"
            )
        self.emit(kind, end_time, None, value=float(count))

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def events(self) -> ObservationStream:
        """The stream in canonical order (:meth:`Observation.sort_key`,
        stable tie-break) as an :class:`ObservationStream`.

        Windowed probes retain no raw stream and return an empty one
        (``== ()``).
        """
        if self.window is not None:
            return ObservationStream()
        return ObservationStream.from_columns(*self._columns)

    def count(self, kind: str) -> float:
        """Total ``value`` of one kind (event count for point events).

        Exact in both modes — windowed totals survive window eviction.
        """
        if self.window is not None:
            return self._kind_totals.get(kind, 0.0)
        code = _KIND_ORDER.get(kind)
        _times, codes, _nodes, _keys, _refs, values = self._columns
        return sum(compress(values, [c == code for c in codes]))

    def counts(self) -> dict[str, float]:
        """Per-kind totals for every kind present in the stream."""
        if self.window is not None:
            return dict(self._kind_totals)
        totals: dict[str, float] = {}
        _times, codes, _nodes, _keys, _refs, values = self._columns
        for code, value in zip(codes, values):
            kind = OBSERVATION_KINDS[code]
            totals[kind] = totals.get(kind, 0.0) + value
        return totals

    def windows(self) -> tuple[WindowAggregate, ...]:
        """Retained window aggregates in time order (windowed mode only)."""
        if self.window is None:
            raise ExperimentError(
                "windows() requires a windowed probe (pass window=...)"
            )
        return tuple(
            WindowAggregate(
                index=index,
                start=index * self.window,
                end=(index + 1) * self.window,
                events=bucket.events,
                counts=dict(bucket.counts),
            )
            for index, bucket in sorted(self._buckets.items())
        )

    def metrics(self) -> dict[str, float]:
        """The gauge dict — becomes ``ExperimentResult.metrics`` verbatim.

        Windowed probes additionally report the bounded-memory account:
        ``obs_window`` (width), ``obs_windows_retained``,
        ``obs_retained_peak``, ``obs_window_evictions``, and
        ``obs_events_folded``.
        """
        out = dict(self._gauges)
        if self.window is not None:
            out["obs_window"] = self.window
            out["obs_windows_retained"] = float(len(self._buckets))
            out["obs_retained_peak"] = float(self._peak_retained)
            out["obs_window_evictions"] = float(self._evicted)
            out["obs_events_folded"] = self._folded
        return out

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.events())
