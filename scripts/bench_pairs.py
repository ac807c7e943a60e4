#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT CHANGE --workload adapt-arctan2d \
        --pairs 10 --seconds 30 --seed0 701

Pair i runs each checkout's own bench/run.py once, with seed seed0 + i
and --trace 0; the parent goes first in even pairs and the change in odd
ones, so a drift of the host's speed does not favour either side.  Every
pair is printed as it finishes.  Then, for each end-to-end metric that
CHANGE/BENCHMARK.json declares, the script prints both sides' medians
and quartiles, how many pairs the change won (ties count for neither)
and the parent's interquartile range, and whether the change won at
least nine tenths of the pairs with medians further apart than that
range, the rule a claimed gain must meet.  Runs that are not correct or
that fail operations are reported too.

The script only starts processes: it imports nothing from either
checkout and writes nothing into them (no bytecode either).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: share of the pairs the change must win for a claimed gain
WIN_SHARE = 0.9


def run_once(checkout, workload, seed, seconds):
    """One benchmark run of a checkout; returns its result object."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name, better, parent, change):
    """One line per metric: medians, quartiles, wins and the claim rule."""
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    met = wins >= WIN_SHARE * len(parent) and abs(cm - pm) > iqr and (
        cm < pm if better == "lower" else cm > pm)
    rel = (cm - pm) / pm if pm else float("nan")
    return (f"{name:18s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
            f"[{c1:.6g}, {c3:.6g}]  {rel:+.1%}  wins {wins}/{len(parent)} (ties {ties})  "
            f"parent IQR {iqr:.4g}  gain rule {'met' if met else 'not met'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(args.change / "BENCHMARK.json") as fh:
        declared = json.load(fh)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload, seed, args.seconds))
        p, c = results["parent"][-1], results["change"][-1]
        shown = {m["name"]: (p["metrics"].get(m["name"], {}).get("value"),
                             c["metrics"].get(m["name"], {}).get("value")) for m in declared}
        print(f"pair {i} seed {seed} first {order[0]}: "
              f"correct {p['correct']}/{c['correct']} failed {p['failed']}/{c['failed']}  "
              + "  ".join(f"{k} {a:.6g}/{b:.6g}" for k, (a, b) in shown.items()
                          if a is not None and b is not None), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed0}-{args.seed0 + args.pairs - 1}; parent/change")
    for side, runs in results.items():
        bad = sum(not r["correct"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{side}: {bad} runs not correct, {failed} failed operations")
    for m in declared:
        name = m["name"]
        values = [[r["metrics"][name]["value"] for r in results[side] if name in r["metrics"]]
                  for side in ("parent", "change")]
        if len(values[0]) == len(values[1]) == args.pairs:
            print(summarize(name, m["better"], *values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
