#!/usr/bin/env python3
"""Repository benchmark: Leopard/PBFT sims, retrieval under attack, live load.

Run from the repository root::

    python3 perfbench/run.py --workload sim-leopard-n128 --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics plus the tracing overhead, writing the kept spans to
``perfbench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh-process set-up probes per run (``setup_s`` is their median).
SETUP_PROBES = 7
#: Seconds a single set-up probe may take before it counts as failed.
PROBE_TIMEOUT = 60.0

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import repro
    from perfbench import workloads
except ImportError as error:
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
          f"{error}", file=sys.stderr)
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"perfbench: imported repro from {repro.__file__}, not from "
          f"this checkout's src/", file=sys.stderr)
    sys.exit(2)


def measure_setup(name: str, seed: int) -> tuple[float, list[float]]:
    """Median wall time from spawning a fresh process to ready-for-load."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate(timeout=PROBE_TIMEOUT)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed "
                               f"(exit {child.returncode})")
        samples.append(elapsed)
    return workloads.median(samples), samples


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[workloads.Outcome, dict]:
    """Measure one workload; returns its outcome and printed metrics."""
    if trace:
        if name in workloads.SIM_WORKLOADS:
            metrics, tracer, problems = workloads.trace_sim(name, seed)
        else:
            metrics, tracer, problems = workloads.trace_live(seed, seconds)
        path = HERE / "out" / f"trace-{name}-seed{seed}.json"
        workloads.write_trace(path, name, seed, tracer, metrics)
        outcome = workloads.Outcome(metrics=metrics, attempted=2,
                                    failed=1 if problems else 0,
                                    problems=problems)
        accounted = sum(metrics[name][0] for name in workloads.ACCOUNTED)
        outcome.notes += [
            f"self times + residual account for {accounted:.4f} s of "
            f"{metrics['trace.wall_s'][0]:.4f} s traced; tracing overhead "
            f"{metrics['trace.overhead_s'][0]:.4f} s",
            f"spans written to {path.relative_to(ROOT)}"]
        return outcome, metrics
    setup_s, samples = measure_setup(name, seed)
    if name in workloads.SIM_WORKLOADS:
        outcome = workloads.run_sim(name, seed, seconds)
    else:
        outcome = workloads.run_live(seed, seconds)
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MB")
    outcome.notes.append("setup_s probes: "
                         + ", ".join(f"{s:.3f}" for s in samples))
    metrics = {name: outcome.metrics[name] for name in workloads.END_TO_END}
    return outcome, metrics


def print_outcome(name: str, seed: int, outcome: workloads.Outcome,
                  metrics: dict) -> None:
    """The human-readable part of the output."""
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"workload {name} seed {seed}: attempted {outcome.attempted}, "
          f"failed {outcome.failed} (failed share {share:.4f})")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    for note in outcome.notes:
        print(f"  # {note}")
    for problem in outcome.problems:
        print(f"  ! {problem}")


def result_line(outcome: workloads.Outcome, metrics: dict) -> dict:
    return {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own fresh process; summarize."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            print(f"  ! {name} exited {child.returncode}: "
                  f"{child.stderr.strip()[-500:]}")
            combined["correct"] = False
            combined["failed"] += 1
            combined["attempted"] += 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workloads.setup_probe(args.workload, args.seed,
                              lambda: print("ready", flush=True))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    outcome, metrics = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    if any(math.isnan(value) for value, _unit in metrics.values()):
        outcome.problems.append("a metric could not be measured (NaN)")
    print_outcome(args.workload, args.seed, outcome, metrics)
    result = result_line(outcome, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
