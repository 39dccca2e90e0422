"""In-memory spans around the benchmark's calls into each layer.

Nothing inside the program is instrumented: spans wrap the public calls
the benchmark itself makes (``run_sweep``, ``write_journal``, a substrate's
``prepare`` and ``Execution.run``, ``run_campaign``, the store's
``get``/``put``, ...).  A span records its name, start, end, and parent;
a layer's *self time* is its spans' durations minus the parts covered by
child spans.  Spans stay in memory and are written out once, at exit.

``untimed()`` brackets the benchmark's own verification work (decoding
journals to digest them, comparing outputs): it is excluded from the
cycle's measured wall in both modes, and spans inside it are reported
but do not count towards the accounting of that wall.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.campaigns.store import ResultStore

UNTIMED = "bench.untimed"


class NullTracer:
    """The untraced mode: no spans, no counts; only untimed time."""

    def __init__(self):
        self.untimed_s = 0.0

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value: float) -> None:
        pass

    @contextmanager
    def untimed(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - started


class Tracer(NullTracer):
    """Records spans ``[name, start, end, parent]`` and summed counts."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    @contextmanager
    def untimed(self):
        with super().untimed(), self.span(UNTIMED):
            yield

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child
        return totals

    def blocking_self_s(self, root: str) -> float:
        """Self time attributed to layers under ``root`` spans, outside
        any untimed bracket (the calls a cycle's wall is made of)."""
        excluded = set()
        for index, (name, _s, _e, parent) in enumerate(self.spans):
            if name == UNTIMED or parent in excluded:
                excluded.add(index)
        covered = [0.0] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0 and index not in excluded:
                covered[parent] += end - start
        return sum(
            (end - start) - covered[index]
            for index, (name, start, end, _parent) in enumerate(self.spans)
            if index not in excluded and name != root
        )

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "counts": self.counts,
                    **extra,
                },
                fh,
            )


class TimedStore(ResultStore):
    """A local result store whose reads and writes are traced."""

    tracer = NullTracer()

    def get(self, spec):
        with self.tracer.span("store.get"):
            return super().get(spec)

    def put(self, result):
        with self.tracer.span("store.put"):
            return super().put(result)

    def get_journal(self, spec):
        with self.tracer.span("store.get_journal"):
            return super().get_journal(spec)

    def put_journal(self, spec, observations):
        with self.tracer.span("store.put_journal"):
            return super().put_journal(spec, observations)

