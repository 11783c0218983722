#!/usr/bin/env python3
"""Compare two sets of bench_ddmc run JSONs against BENCHMARK.json's bounds.

  compare.py --base a1.json a2.json ... --new b1.json b2.json ...
  compare.py --base a1.json a2.json ... --save baseline.json

Each file is what `bench_ddmc --json` wrote: one run, one or more
workloads. For every workload and every end_to_end metric of BENCHMARK.json
one row shows the median and quartiles of each set and a verdict:

  improved    every new run reads better than every base run, and the
              medians differ by more than the base quartile spread
  unresolved  otherwise, when a set's quartile spread, as a share of its
              median, is wider than the bound
  regressed   otherwise, when the new median is worse than the base median
              by more than the bound
  ok          otherwise
  incorrect   a run of either set failed its output checks

Exits 1 when any row is regressed, unresolved or incorrect. With --save
and no --new, writes the base set's medians and quartiles instead.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths):
    """workload -> {"runs": [workload results]}"""
    sets = {}
    for path in paths:
        run = json.loads(Path(path).read_text())
        for name, result in run["workloads"].items():
            sets.setdefault(name, []).append(result)
    return sets


def quartiles(values):
    """Quartiles interpolated between the samples themselves, so that one
    outlier among five runs does not set the spread."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed))
    if (all(sign * (n - b) < 0 for n in new for b in base)
            and sign * (bmed - nmed) > bq3 - bq1):
        return "improved"
    if spread > bound:
        return "unresolved"
    if sign * (nmed - bmed) / abs(bmed) > bound:
        return "regressed"
    return "ok"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+")
    ap.add_argument("--save", help="write the base set's summary here")
    args = ap.parse_args()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = load(args.base)

    if not args.new:
        summary = {}
        for name, runs in sorted(base.items()):
            summary[name] = {}
            for m in metrics:
                values = [r["end_to_end"][m["name"]]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                summary[name][m["name"]] = {
                    "median": med, "q1": q1, "q3": q3,
                    "iqr_share": (q3 - q1) / abs(med), "unit": m["unit"],
                    "runs": len(values)}
                print(f"{name:15s} {m['name']:16s} {fmt(values):40s} "
                      f"{m['unit']}")
        if args.save:
            Path(args.save).write_text(json.dumps(summary, indent=2) + "\n")
        return 0

    new = load(args.new)
    header = (f"{'workload':15s} {'metric':16s} {'base median [q1, q3]':34s} "
              f"{'new median [q1, q3]':34s} {'change':>8s} {'bound':>6s} "
              "verdict")
    print(header)
    print("-" * len(header))
    bad = False
    for name in sorted(set(base) & set(new)):
        if not all(r["correct"] for r in base[name] + new[name]):
            print(f"{name:15s} {'(output checks)':16s} {'':34s} {'':34s} "
                  f"{'':>8s} {'':>6s} incorrect")
            bad = True
        for m in metrics:
            b = [r["end_to_end"][m["name"]]["value"] for r in base[name]]
            n = [r["end_to_end"][m["name"]]["value"] for r in new[name]]
            v = verdict(b, n, m["better"], m["bound"])
            change = (statistics.median(n) / statistics.median(b) - 1) * 100
            print(f"{name:15s} {m['name']:16s} {fmt(b):34s} {fmt(n):34s} "
                  f"{change:+7.1f}% {m['bound'] * 100:5.0f}% {v}")
            bad = bad or v in ("regressed", "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
