"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` next to
this directory.  Every line but the last is a human-readable report or a
JSON record of the run; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones.
Exit code 0 means every operation was correct.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9  # this process plus eight fresh ones


def _setup_child(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the program and build the inputs."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload!r}].build({seed!r})\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def _environment(seed: int) -> dict:
    import numpy

    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def use_source_tree() -> bool:
    """Put ``src/`` and this directory first on the path; True if the package is there."""
    if not (SRC / "qpauction" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'qpauction'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import qpauction

    if Path(qpauction.__file__).resolve().parent != SRC / "qpauction":
        print(f"error: imported qpauction from {qpauction.__file__}", file=sys.stderr)
        return False
    return True


def run(args: argparse.Namespace) -> int:
    if not use_source_tree():
        return 2
    import workloads
    from clock import Clock

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_main = time.perf_counter() - _T_START
    # A traced run calibrates only between passes: a calibration inside one
    # would count as the harness's self time.
    clock = Clock(segment_s=math.inf) if args.trace else Clock()
    setup_main *= clock.adjustment()

    record = _environment(args.seed)
    record["workload"] = args.workload
    record["load_start"] = os.getloadavg()
    tally = workloads.Tally()
    if args.trace:
        metrics = _per_layer(workload, inputs, clock, tally, args, record)
    else:
        metrics = _end_to_end(workload, inputs, clock, tally, args, record, setup_main)
    record["failures"] = tally.failures[:10]
    record["failed_frac"] = len(tally.failures) / tally.attempted
    record["csv_deterministic"] = tally.deterministic
    record["load_end"] = os.getloadavg()

    result_metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())}
    correct = not tally.failures and tally.deterministic
    print(json.dumps({"record": record}))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {'failed_frac':<40}{record['failed_frac']:>14.6g} fraction")
    for name, m in result_metrics.items():
        print(f"  {name:<40}{m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _end_to_end(workload, inputs, clock, tally, args, record, setup_main) -> dict:
    """Whole units until ``--seconds`` of raw unit time are measured.

    Every unit runs the same solves in the same order.  Each solve's time is
    its median over the units, and the percentiles are taken over solves, so
    one slow moment cannot move an operation across the percentile.
    """
    import layers

    measured, rates, raw_rates, solve_ms = 0.0, [], [], []
    while len(rates) < workload.min_units or measured < args.seconds:
        unit = workload.run_unit(inputs, clock)
        measured += unit.raw_seconds
        passed = tally.add(unit)
        rates.append(passed / unit.seconds)
        raw_rates.append(passed / unit.raw_seconds)
        solve_ms.append([1e3 * op.seconds for op in unit.ops if op.kind == "solve"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_solve_ms = [statistics.median(times) for times in zip(*solve_ms)]
    samples = [setup_main]
    for _ in range(SETUP_SAMPLES - 1):
        clock.start()
        child_seconds = _setup_child(args.workload, args.seed)
        clock.stop()
        samples.append(child_seconds * clock.segment_scales[-1])
    record["setup_samples_s"] = samples
    record["unit_rates_per_s"] = rates
    record["raw_unit_rates_per_s"] = raw_rates
    record["solves_per_unit"] = len(per_solve_ms)
    return {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "solve_ms_p50": (layers.percentile(per_solve_ms, 50), "ms"),
        "solve_ms_p80": (layers.percentile(per_solve_ms, 80), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(workload, inputs, clock, tally, args, record) -> dict:
    """One untraced and one traced unit of the same work, then the layer probes.

    Both units are fixed work, so the counts repeat exactly for a seed.
    """
    import layers
    import workloads

    untraced = workload.run_unit(inputs, clock)
    untraced_rate = tally.add(untraced) / untraced.seconds
    with layers.Tracer() as tracer:
        traced = workload.run_unit(inputs, clock)
    traced_rate = tally.add(traced) / traced.seconds
    metrics = {name: (value, "count") for name, value in tracer.counts.items()}
    mechanism_calls = sum(1 for span in tracer.spans if span[0].startswith("mechanism."))
    metrics["mechanism.calls"] = (mechanism_calls, "count")
    solves = [op for op in traced.ops if op.kind == "solve" and op.error is None]
    metrics["solver.iterations"] = (sum(op.result.iterations for op in solves), "count")
    self_ms = tracer.self_ms()
    metrics["solver.self_ms"] = (self_ms.get("solver", 0.0), "ms")
    metrics["mechanism.self_ms"] = (self_ms.get("mechanism", 0.0), "ms")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_x"] = (untraced_rate / traced_rate, "x")
    if workload.uses_harness:
        harness_tracer = tracer
    else:
        # This workload does not call the harness: take the harness layer
        # from one traced pass of the winners-pay reference sweep.
        sweep = workloads.WORKLOADS["sweep-winnerspay"]
        with layers.Tracer() as harness_tracer:
            tally.add(sweep.run_unit(sweep.build(args.seed), clock))
    metrics.update(layers.harness_metrics(harness_tracer))
    metrics.update(layers.probe_metrics(clock))
    trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    record["trace_file"] = trace_file.name
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = ("sweep-allpay", "sweep-winnerspay", "solve-mix", "crowd")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
