"""The correctness gate: output digests and the operation ledger.

Digests are SHA-256 over canonical JSON:

* a result digests its ``ExperimentResult.to_dict()`` with the spec's
  reception engine normalised to ``reference`` — cross-engine equality is
  a promise, so an ``auto`` run must reproduce the reference digest;
* a journal digests its *decoded* observation rows (not the gzip bytes),
  so a new journal encoding that decodes to the same stream still passes;
* the slot lane digests every slot's receptions and collision counts;
* campaign artifacts (``points.csv`` and the figure CSVs) digest their
  bytes.

``expected.json`` holds the digests recorded at ``DEFAULT_SEED``.  At any
other seed the gate still checks that every repeat of an item reproduces
the digest of its first run in the same process (bit-identical replay).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import traceback

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _num(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def result_digest(result) -> str:
    spec = result.spec
    if spec.model.engine != "reference":
        spec = dataclasses.replace(
            spec, model=dataclasses.replace(spec.model, engine="reference")
        )
    return _sha(_canonical(dataclasses.replace(result, spec=spec).to_dict()))


def journal_digest(observations) -> str:
    rows = [
        [_num(obs.time), obs.kind, obs.node, obs.key, obs.ref, _num(obs.value)]
        for obs in observations
    ]
    return _sha(_canonical(rows))


def lane_digest(outcome) -> str:
    receptions, collisions = outcome
    slots = [sorted([int(k), str(v)] for k, v in slot.items()) for slot in receptions]
    return _sha(_canonical({"receptions": slots, "collisions": collisions}))


def load_expected() -> dict[str, str]:
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Ledger:
    """Counts operations and records every failure by name.

    An *operation* is an item (a ``run`` call, the lane, a sweep point, a
    campaign point) or a campaign/trace check.  A failure is a raised
    exception, a digest mismatch, a failed requirement, or a failed
    check.  ``integrity`` lists the failures that mean an output is wrong
    (exceptions, digest mismatches, failed requirements); failed paper
    checks are counted and named but are findings about the program, not
    corrupted outputs.
    """

    def __init__(self, expected: dict[str, str] | None = None, record: bool = False):
        self.expected = expected or {}
        self.record = record
        self.first: dict[str, str] = {}
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.integrity: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _fail(self, message: str, integrity: bool) -> None:
        self.failures.append(message)
        if integrity:
            self.integrity.append(message)

    def item(self, label: str, fn, weight: int = 1):
        """Run one item; an exception fails it (and is named)."""
        self.attempted += weight
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed item is recorded, not fatal
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            for _ in range(weight):
                self._fail(f"{label}: raised {detail}", integrity=True)
            return None

    def wants(self, label: str) -> bool:
        """Whether a digest for ``label`` can be compared or recorded."""
        return self.record or label in self.expected or label in self.first

    def digest(self, label: str, value) -> None:
        """Compare an output digest with the record and with its first
        occurrence in this process.  A callable ``value`` is an expensive
        digest, computed only when :meth:`wants` says it can be used."""
        if callable(value):
            if not self.wants(label):
                return
            value = value()
        self.recorded[label] = value
        first = self.first.setdefault(label, value)
        if value != first:
            self._fail(f"{label}: digest changed between repeats", integrity=True)
        want = self.expected.get(label)
        if want is not None and value != want:
            self._fail(f"{label}: digest mismatch (expected {want[:12]}, got {value[:12]})", integrity=True)

    def require(self, label: str, ok: bool) -> None:
        """A property of an already-counted item; failing it fails the item."""
        if not ok:
            self._fail(f"{label}: failed", integrity=True)

    def checks(self, label: str, outcomes) -> None:
        """Record campaign/trace check outcomes (one operation each)."""
        for outcome in outcomes:
            self.attempted += 1
            if outcome.failures:
                name = f"{label}: check {outcome.kind}[{','.join(outcome.sweeps)}]"
                self._fail(f"{name} failed: {outcome.failures[0]}", integrity=False)
