#!/usr/bin/env python3
"""Build and run the SPCG repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload large_pde --seed 1 --seconds 15 --trace 0

Workloads: large_pde, suite_sweep, serve_mixed, dist_latency. The first run
in a checkout builds the library from ../src together with the benchmark
binary spcg_perfbench into .bench_build/perfbench (RelWithDebInfo). Build
output goes to standard error; standard output is spcg_perfbench's report,
whose last line is one JSON object with the keys correct, attempted, failed
and metrics.
--trace 1 reports per-layer metrics and writes the recorded spans, as a
Chrome trace, to .bench_build/perfbench/traces/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("large_pde", "suite_sweep", "serve_mixed", "dist_latency")
RUN_TIMEOUT_S = 170


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete_result(result, declared, trace):
    """Check spcg_perfbench's metrics against BENCHMARK.json. A per-layer
    metric of a layer the workload does not exercise is reported as 0;
    any other missing, unknown or mis-united metric is an error."""
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            raise ValueError(f"metric {name} [{m['unit']}] is not declared")
    for name, unit in declared.items():
        if name not in metrics:
            if not trace:
                raise ValueError(f"end-to-end metric {name} missing")
            print(f"metric {name} = 0 {unit}  [layer not exercised]")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = dict(sorted(metrics.items()))
    return result


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("error: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "spcg_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("error: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 2

    cmd = [str(BUILD / "spcg_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}_seed{args.seed}.json")]
    try:
        # subprocess.run kills and reaps spcg_perfbench if it overruns.
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                             text=True)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"error: spcg_perfbench exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
        result = complete_result(result, declared_metrics(args.trace),
                                 args.trace)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
