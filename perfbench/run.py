"""Benchmark for ontomap: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. Each run executes a fixed list of operations (a count of whole
cycles set by --seconds), after one untimed warm-up, checks every output,
and prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics (end-to-end with --trace 0, per-layer with
--trace 1). Times are scaled to the reference machine's speed by the
calibration in calibrate.py. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORKLOADS = ("corridor-map", "oracle-grid", "random-wide", "cli-batch")
# Small matrices: one BLAS thread is fastest and steadiest, and stays within
# the two cores of the reference machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 9
# The 99th percentile is reported only with at least ten samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description="ontomap benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def time_setup(args, cal) -> float:
    """Median scaled wall time of fresh interpreters that import the package
    and generate and load the workload's inputs. One untimed launch first."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    launches = []
    for i in range(SETUP_LAUNCHES + 1):
        cal.tick()
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        end = time.perf_counter()
        if done.returncode != 0:
            raise RuntimeError(f"setup launch failed: {done.stderr.strip()}")
        if i:
            launches.append((start, end))
    cal.tick()
    return statistics.median((end - start) * cal.factor(start, end) for start, end in launches)


def tail_ms(samples: list[float], median: float) -> float:
    """The 99th percentile when at least TAIL_SAMPLES lie beyond it, else
    the median: with fewer samples there is no tail to report."""
    if len(samples) * 0.01 < TAIL_SAMPLES:
        return median
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ontomap" / "__init__.py").is_file():
        print(f"error: no ontomap package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ontomap

    if Path(ontomap.__file__).resolve().parent != (SRC / "ontomap").resolve():
        print(f"error: imported ontomap from {ontomap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import spans
    import workloads

    work = BENCH / "work" / args.workload
    if args.setup_only:
        workloads.setup(args.workload, args.seed, work)
        return 0

    shutil.rmtree(work, ignore_errors=True)
    cal = calibrate.Calibration()
    setup_s = None if args.trace else time_setup(args, cal)
    loaded = workloads.setup(args.workload, args.seed, work)
    wl = workloads.build(args.workload, args.seed, work, loaded)
    errors: list[str] = []

    def attempt(op):
        """Run one operation; returns (seconds, failure message or None)."""
        start = time.perf_counter()
        try:
            result = op.run()
        except workloads.Failed as e:
            return time.perf_counter() - start, str(e)
        elapsed = time.perf_counter() - start
        try:
            op.check(result)
        except workloads.Failed as e:
            return elapsed, str(e)
        except workloads.Wrong as e:
            errors.append(str(e))
        return elapsed, None

    for op in wl.warmup:
        attempt(op)
    plan = [op for _ in range(wl.cycles(args.seconds)) for op in wl.ops]

    tracer = spans.Tracer() if args.trace else None
    timed, failures = [], []  # timed: (start, seconds, completed)
    with tracer or contextlib.nullcontext():
        for i, op in enumerate(plan):
            if tracer:
                tracer.op = i
            cal.tick()
            start = time.perf_counter()
            elapsed, failure = attempt(op)
            timed.append((start, elapsed, failure is None))
            if failure is not None:
                failures.append(failure)
    cal.tick()

    # Scaled completed samples (ms) by position in the cycle: each position
    # repeats the same operation once per cycle.
    factors = {i: cal.factor(start, start + elapsed) for i, (start, elapsed, _) in enumerate(timed)}
    slots: dict[int, list[float]] = {}
    for i, (_, elapsed, completed) in enumerate(timed):
        if completed:
            slots.setdefault(i % len(wl.ops), []).append(1e3 * elapsed * factors[i])

    ms = [t for times in slots.values() for t in times]
    for message in sorted(set(failures)):
        print(f"failed x{failures.count(message)}: {message}")
    for message in errors[:20]:
        print(f"WRONG: {message}")
    if not ms:
        print("error: every operation failed", file=sys.stderr)
        return 1
    # Each operation's time is its median over the cycles; the run's median
    # and throughput are taken over one cycle of those.
    typical = [statistics.median(times) for times in slots.values()]
    p50 = statistics.median(typical)
    cal_ms = cal.median_ms()
    if tracer:
        tracer.write(work / f"trace-seed{args.seed}.jsonl")
        labels = {i: op.label for i, op in enumerate(plan)}
        metrics = spans.layer_metrics(tracer, labels, factors, p50, cal_ms)
    else:
        completed_per_cycle = len(ms) * len(wl.ops) / len(plan)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_p99": {"value": tail_ms(ms, p50), "unit": "ms"},
            "ops_per_s": {"value": 1e3 * completed_per_cycle / sum(typical), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(f"{args.workload} seed={args.seed}: {len(plan)} ops, {len(failures)} failed, {len(ms)} timed samples, "
          f"calibration {cal_ms:.3f} ms (scale {calibrate.REFERENCE_MS / cal_ms:.3f})")
    print(json.dumps({"correct": not errors, "attempted": len(plan), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
