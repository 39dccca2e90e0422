"""The benchmark's own modes: ``--gate``, ``--record``, ``--self-test``.

``--gate`` runs one cycle of every workload at ``DEFAULT_SEED`` against
``expected.json`` — ``radio_slots`` together with the ``sinr_contention``
campaign — and lists every failure by name; it exits 1 when anything
failed.  ``--record`` re-records ``expected.json`` with the radio items
and the lane on the ``reference`` engine (the digests ``auto`` must
reproduce).  ``--self-test`` runs every workload at a tiny size through
the real command, asserts that every metric prints with its unit, and
checks that the gate trips on a deliberately wrong expected digest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import run as bench
import workloads
from gate import EXPECTED_PATH, Ledger, load_expected
from tracing import NullTracer


def one_cycle(workload: str, ledger: Ledger, scale: float = 1.0, **options) -> float:
    """Run one cycle of ``workload`` at the default seed, plus a warm pass
    where the cycle has none; returns the cycle's wall."""
    scratch = bench.scratch_dir()
    try:
        cy = workloads.Cycle(
            workload, workloads.DEFAULT_SEED, scale, NullTracer(), ledger, scratch, False,
            **options,
        )
        started = time.perf_counter()
        workloads.CYCLES[workload](cy)
        wall = time.perf_counter() - started
        if not cy.warm_walls:
            workloads.warm_pass(cy)
        return wall
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def gate() -> int:
    expected = load_expected()
    total = Ledger()
    for workload in bench.WORKLOADS:
        ledger = Ledger(expected)
        wall = one_cycle(workload, ledger, sinr=workload == "radio_slots")
        missing = sorted(set(ledger.recorded) - set(expected))
        print(f"== {workload}: {ledger.attempted} operations, {wall:.1f} s")
        bench.report({}, {}, ledger)
        for label in missing:
            print(f"UNRECORDED {label}")
        total.attempted += ledger.attempted
        total.failures += ledger.failures
        total.integrity += ledger.integrity
    print(f"== gate: {total.failed} failed of {total.attempted} operations "
          f"(error_rate {total.failed / max(total.attempted, 1):.6g}); "
          f"{len(total.integrity)} output mismatches")
    return 1 if total.failures else 0


def record() -> int:
    recorded: dict[str, str] = {}
    for workload in bench.WORKLOADS:
        ledger = Ledger(record=True)
        one_cycle(workload, ledger, engine="reference", sinr=workload == "radio_slots")
        if ledger.integrity:
            print("\n".join(ledger.integrity), file=sys.stderr)
            return 1
        recorded.update(ledger.recorded)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(dict(sorted(recorded.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(recorded)} digests to {EXPECTED_PATH}")
    return 0


TINY = 1 / 16


def self_test() -> int:
    problems: list[str] = []
    for workload in bench.WORKLOADS:
        for trace, units in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(bench.__file__), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", str(TINY)],
                capture_output=True, text=True, timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: outputs incorrect: {lines[:-1]}")
            printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
            for name, unit in units.items():
                if printed.get(name) != unit or result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{where}: metric {name} not printed with unit {unit}")
            if "error_rate" not in printed:
                problems.append(f"{where}: error_rate not printed")
        # The gate must trip on a wrong expected digest.
        first = Ledger(record=True)
        one_cycle(workload, first, TINY)
        label = sorted(first.recorded)[0]
        clean = Ledger(dict(first.recorded))
        one_cycle(workload, clean, TINY)
        wrong = Ledger({**first.recorded, label: "0" * 64})
        one_cycle(workload, wrong, TINY)
        if clean.integrity:
            problems.append(f"{workload}: gate failed on its own digests: {clean.integrity}")
        if not any(label in failure for failure in wrong.integrity):
            problems.append(f"{workload}: gate did not trip on a wrong digest for {label}")
        print(f"self-test {workload}: done", flush=True)
    for problem in problems:
        print(f"SELF-TEST FAILED {problem}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main(args) -> int:
    if args.gate:
        return gate()
    if args.record:
        return record()
    return self_test()
