#!/usr/bin/env python3
"""Build bench_ddmc from this checkout and run one of its workloads.

  python3 bench/ddmc_bench/run.py --workload <name> --seed <n> \
      --seconds <s> --trace <0|1>

The benchmark builds into .bench_build/ddmc_bench at the checkout root
(configured once, rebuilt incrementally) and keeps each run JSON there under
runs/ (compare.py reads them) and, with --trace 1, the Chrome trace under
traces/. The human-readable report goes to
stdout; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics that BENCHMARK.json
lists, or its per_layer metrics with --trace 1. Exits non-zero when the
build fails, the benchmark crashes or times out, or an output is wrong.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ddmc_bench"
RUN_TIMEOUT_S = 170


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_ddmc",
                    "-j", "4"], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    out = runs / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BUILD / "bench_ddmc"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", str(out), "--scratch", str(BUILD)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", str(traces / f"seed{args.seed}")]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: bench_ddmc timed out", file=sys.stderr)
        return 1
    if not out.exists():
        print(f"run.py: bench_ddmc exited {code} without results",
              file=sys.stderr)
        return 1
    run = json.loads(out.read_text())["workloads"][args.workload]

    section = run["per_layer"] if args.trace else run["end_to_end"]
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} [{m['unit']}] missing from "
                  "the run", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": metrics}))
    return 0 if run["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
