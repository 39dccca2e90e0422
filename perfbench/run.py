"""The benchmark of record: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mmb_event --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --gate            # full correctness gate
    python3 perfbench/run.py --self-test       # tiny sizes, checks the harness
    python3 perfbench/run.py --record          # re-record expected.json

A measured run repeats the workload's cycle for ``--seconds`` seconds (at
least one cycle; another starts only while the longest cycle so far
still fits), then prints one ``name value unit`` line per metric, every
failure by name, and — as its last line — one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced cycles and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("mmb_event", "radio_slots", "journaled_fanout")
SETUP_SAMPLES = 5
#: Workloads whose lap walls are scaled by the host probe (README.md,
#: "Host noise"): single-process pure-Python work that slows down with
#: the host the way the probe does.
CALIBRATED = ("mmb_event",)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_networkx_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_repro_s": "s",
    "topology.build_s": "s",
    "topology.builds": "count",
    "topology.edges": "count",
    "experiments.prepare_s": "s",
    "experiments.sweep_s": "s",
    "experiments.sweep_efficiency": "ratio",
    "standard.execute_s": "s",
    "rounds.execute_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "mac.bcasts": "count",
    "mac.rcv": "count",
    "mac.deliveries": "count",
    "rounds.rounds": "count",
    "radio.execute_s": "s",
    "sinr.execute_s": "s",
    "radio.slots": "count",
    "radio.slots_per_s": "1/s",
    "radio.network_s": "s",
    "radio.run_slot_s": "s",
    "radio.cells": "count",
    "radio.cells_per_s": "1/s",
    "radio.auto_vectorized": "bool",
    "runtime.capture_s": "s",
    "runtime.observations": "count",
    "runtime.journal_encode_s": "s",
    "runtime.journal_decode_s": "s",
    "runtime.journal_bytes": "bytes",
    "store.put_s": "s",
    "store.put_journal_s": "s",
    "store.bytes_written": "bytes",
    "store.get_s": "s",
    "store.get_journal_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.corrupt": "count",
    "campaigns.cold_s": "s",
    "campaigns.warm_s": "s",
    "campaigns.dispatched": "count",
    "campaigns.completed": "count",
    "campaigns.steals": "count",
    "campaigns.retried": "count",
    "campaigns.useful_ratio": "ratio",
    "campaigns.fabric_efficiency": "ratio",
    "campaigns.checks_s": "s",
    "campaigns.checks_failed": "count",
    "campaigns.report_s": "s",
    "campaigns.verify_s": "s",
    "bench.self_s": "s",
    "trace.attributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Span names whose summed self time is reported as ``<name>_s``.
SELF_TIMED = (
    "topology.build", "experiments.prepare", "standard.execute",
    "rounds.execute", "radio.execute", "sinr.execute", "radio.network",
    "radio.run_slot", "runtime.journal_encode", "runtime.journal_decode",
    "store.put", "store.put_journal", "store.get", "store.get_journal",
    "campaigns.cold", "campaigns.warm", "campaigns.checks",
    "campaigns.report", "campaigns.verify",
)
ROOT_SPAN = "bench.cycle"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--gate", action="store_true", help="run the full correctness gate at the default seed")
    mode.add_argument("--self-test", action="store_true", help="run every workload at a tiny size and check the harness")
    mode.add_argument("--record", action="store_true", help="re-record expected.json on the reference engine")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.gate or args.self_test or args.record) and args.workload is None:
        parser.error("--workload is required")
    return args


def find_program() -> None:
    """Put the checkout's ``src`` on the path (and the children's)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )


def setup(args) -> float:
    """Imports and input generation; returns the seconds since this
    interpreter started running this file."""
    import repro.cli  # noqa: F401 - the user-facing entry point's import cost
    import workloads

    if args.workload == "mmb_event":
        workloads.mmb_campaign(args.seed, args.scale)
    elif args.workload == "radio_slots":
        workloads.radio_campaigns(args.seed, scale=args.scale)
        workloads.resolve_engine("auto")
    else:
        workloads.fanout_sweep(args.seed, args.scale)
        workloads.fanout_campaign(args.seed, args.scale)
    return time.perf_counter() - STARTED


def scratch_dir() -> str:
    path = os.path.join(OUT, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", str(args.scale)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def import_times() -> dict[str, float]:
    """``python -X importtime`` of the CLI in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli, repro.radio.engines"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        cumulative.setdefault(name, int(parts[1]) / 1e6)
    total = cumulative.get("repro.cli", 0.0)
    networkx = cumulative.get("networkx", 0.0)
    numpy = cumulative.get("numpy", 0.0)
    return {
        "cli.import_s": total,
        "cli.import_networkx_s": networkx,
        "cli.import_numpy_s": numpy,
        "cli.import_repro_s": total - networkx - numpy,
    }


def run_cycle(cycle_fn, cy, tracer) -> tuple[float, int]:
    """One cycle's wall (untimed verification excluded) and item count."""
    untimed_before = tracer.untimed_s
    started = time.perf_counter()
    with tracer.span(ROOT_SPAN):
        items = cycle_fn(cy)
    wall = time.perf_counter() - started - (tracer.untimed_s - untimed_before)
    return wall, items


def measure(args, ledger, scratch: str):
    """Repeat cycles for ``args.seconds``; returns the cycle records."""
    import workloads
    from tracing import NullTracer, Tracer

    cycle_fn = workloads.CYCLES[args.workload]
    plain, traced = NullTracer(), Tracer()
    untraced_walls, traced_walls, items_done, laps = [], [], [], {}
    cy = workloads.Cycle(args.workload, args.seed, args.scale, plain, ledger, scratch, False)
    begun = time.perf_counter()
    last = 0.0
    index = 0
    while True:
        modes = (False, True) if args.trace else (False,)
        for with_trace in modes:
            cy.tracer, cy.traced, cy.index = (traced if with_trace else plain), with_trace, index
            cy.laps, cy.calibrate = {}, not args.trace and args.workload in CALIBRATED
            wall, items = run_cycle(cycle_fn, cy, cy.tracer)
            index += 1
            (traced_walls if with_trace else untraced_walls).append(wall)
            if not with_trace:
                items_done.append(items)
                for label, lap in cy.laps.items():
                    laps.setdefault(label, []).append(lap)
            last = max(last, wall)
        elapsed = time.perf_counter() - begun
        if elapsed + last * len(modes) > args.seconds:
            break
    cy.tracer, cy.traced, cy.calibrate = plain, False, False
    cost = sum(statistics.median(walls) for walls in laps.values())
    for _ in range(workloads.WARM_PASSES[args.workload]):
        cy.warm_walls.append(workloads.warm_pass(cy)[0])
    print(f"cycles: untraced {[round(w, 3) for w in untraced_walls]} s, "
          f"traced {[round(w, 3) for w in traced_walls]} s, "
          f"median laps {cost:.3f} s{' calibrated' if args.workload in CALIBRATED else ''}",
          file=sys.stderr)
    return cy, traced, untraced_walls, traced_walls, statistics.median(items_done) / cost


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(args, cy, tracer, untraced_walls, traced_walls) -> dict[str, float]:
    cycles = max(len(traced_walls), 1)
    self_times = tracer.self_times()
    totals: dict[str, float] = {}
    for name, start, end, _parent in tracer.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    counts = {k: v / cycles for k, v in tracer.counts.items()}
    m = {f"{name}_s": self_times.get(name, 0.0) / cycles for name in SELF_TIMED}
    for key in PER_LAYER:
        if PER_LAYER[key] != "s" and key not in m:
            m[key] = counts.get(key, 0.0)
    m["experiments.sweep_s"] = totals.get("experiments.sweep", 0.0) / cycles
    m["experiments.sweep_efficiency"] = _ratio(
        counts.get("experiments.sweep_serial_s", 0.0), 2 * m["experiments.sweep_s"]
    )
    m["sim.events_per_s"] = _ratio(m["sim.events"], m["standard.execute_s"])
    m["radio.slots_per_s"] = _ratio(m["radio.slots"], m["radio.execute_s"] + m["sinr.execute_s"])
    m["radio.cells_per_s"] = _ratio(m["radio.cells"], m["radio.run_slot_s"])
    m["radio.auto_vectorized"] = min(counts.get("radio.auto_vectorized", 0.0), 1.0)
    m["campaigns.useful_ratio"] = _ratio(m["campaigns.completed"], m["campaigns.dispatched"])
    m["campaigns.fabric_efficiency"] = _ratio(
        counts.get("campaigns.points_serial_s", 0.0), 2 * totals.get("campaigns.cold", 0.0) / cycles
    )
    m["runtime.capture_s"] = capture_probe(args) if args.workload == "journaled_fanout" else 0.0
    m.update(import_times())
    traced_wall = statistics.median(traced_walls)
    m["bench.self_s"] = self_times.get(ROOT_SPAN, 0.0) / cycles
    m["trace.attributed_share"] = _ratio(
        tracer.blocking_self_s(ROOT_SPAN) / cycles, traced_wall
    )
    m["trace.overhead_ratio"] = traced_wall / statistics.median(untraced_walls)
    return m


def capture_probe(args) -> float:
    """Observation capture cost: one sweep point observed minus summary."""
    import workloads

    spec = workloads.fanout_sweep(args.seed, args.scale)[0]
    walls = {}
    for name, options in (("summary", workloads.RunOptions.summary()), ("observed", workloads.RunOptions.observed())):
        workloads.clear_topology_cache()
        started = time.perf_counter()
        workloads.run(spec, options)
        walls[name] = time.perf_counter() - started
    return walls["observed"] - walls["summary"]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def report(metrics: dict[str, float], units: dict[str, str], ledger, stream=sys.stdout) -> dict:
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}", file=stream)
    error_rate = ledger.failed / max(ledger.attempted, 1)
    print(f"error_rate {error_rate:.6g} ratio ({ledger.failed} failed of {ledger.attempted} operations)", file=stream)
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=stream)
    return {
        "correct": not ledger.integrity,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def measured_run(args) -> int:
    own_setup = setup(args)
    from gate import Ledger, load_expected
    import workloads

    expected = load_expected() if args.seed == workloads.DEFAULT_SEED and args.scale >= 1.0 else {}
    ledger = Ledger(expected)
    scratch = scratch_dir()
    try:
        samples = [] if args.trace else setup_samples(args, own_setup)
        cy, tracer, untraced, traced, rate = measure(args, ledger, scratch)
        if args.trace:
            metrics, units = layer_metrics(args, cy, tracer, untraced, traced), PER_LAYER
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(
                os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "metrics": metrics},
            )
        else:
            metrics = {
                "setup_s": statistics.median(samples),
                "items_per_s": rate,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.workload == "journaled_fanout" and not args.trace:
        # The warm phase has its own line; it is not a bounded metric
        # because the serial workloads have no warm phase of their own.
        print(f"warm_s {statistics.median(cy.warm_walls):.6g} s")
    result = report(metrics, units, ledger)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    find_program()
    if args.setup_probe:
        print(setup(args))
        return 0
    if args.gate or args.record or args.self_test:
        import checks

        return checks.main(args)
    return measured_run(args)


if __name__ == "__main__":
    sys.exit(main())
