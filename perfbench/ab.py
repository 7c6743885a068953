#!/usr/bin/env python3
"""Compare two builds with the benchmark, in alternating pairs.

    python3 perfbench/ab.py --a PARENT_CHECKOUT --b CHANGE_CHECKOUT \\
        [--workloads mcf-4ch,namd-4ch] [--pairs 10]

Each pair runs every workload once on each side with one seed (seed0 + pair
index), alternating which side goes first. Every run lasts BENCHMARK.json's
run_seconds, the length the bounds were measured at. Both sides are measured
by this copy of the benchmark (run.py --root), so benchmark code and settings
are identical. Per workload and end-to-end metric it prints each side's median,
quartiles and spread (IQR / median, labelled steady below a third of the
bound, within below the bound, noisy above), B's win fraction, and a verdict:

  gain        B wins >= 9/10 of the pairs (ties count for neither) and the
              medians differ, in B's favour, by more than A's IQR
  regression  B's median is worse than A's by more than the metric's bound
  unresolved  A's spread exceeds the bound and not every B run beats every
              A run, so no regression check is possible
  same        none of the above

Without --b it measures one side only, for the spread. --out writes every
run's metrics as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--root", root,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit("ab: no result from %s\n%s" % (" ".join(cmd), p.stderr))
    result = json.loads(lines[-1])
    if p.returncode != 0 or not result.get("correct"):
        sys.exit("ab: failed run %s\n%s" % (" ".join(cmd), p.stderr))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, metric):
    lower = metric["better"] == "lower"
    qa1, ma, qa3 = quartiles(a)
    mb = statistics.median(b)
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    win_frac = wins / len(a)
    gain = mb - ma if not lower else ma - mb  # > 0 favours B
    worse_share = -gain / ma if ma else 0.0
    if win_frac >= 0.9 and gain > qa3 - qa1:
        v = "gain"
    elif worse_share > metric["bound"]:
        v = "regression"
    elif (qa3 - qa1) / ma > metric["bound"] and not (
            (max(b) < min(a)) if lower else (min(b) > max(a))):
        v = "unresolved"
    else:
        v = "same"
    return win_frac, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="baseline checkout")
    ap.add_argument("--b", help="changed checkout (omit: spread of A only)")
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", help="write every run's metrics here (JSON)")
    args = ap.parse_args()

    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = spec["run_seconds"]
    sides = {"A": os.path.abspath(args.a)}
    if args.b:
        sides["B"] = os.path.abspath(args.b)

    runs = {s: {w: [] for w in workloads} for s in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(list(sides)))
        for w in workloads:
            for s in order:
                m = run_once(sides[s], w, args.seed0 + i, seconds)
                runs[s][w].append(m)
                print("pair %d %s %s %s" % (i, w, s, " ".join(
                    "%s=%.6g" % kv for kv in sorted(m.items()))),
                    file=sys.stderr, flush=True)

    print("%-11s %-18s %5s %11s %11s %11s %7s %11s %7s %5s %s" % (
        "workload", "metric", "side", "q1", "median", "q3", "spread",
        "bound", "", "wins", "verdict"))
    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cols = {}
            for s in sides:
                vals = [r[name] for r in runs[s][w]]
                q1, med, q3 = quartiles(vals)
                cols[s] = vals
                spread = (q3 - q1) / med if med else 0.0
                # A third of the bound leaves room for a noisier hour.
                label = ("steady" if spread <= metric["bound"] / 3 else
                         "within" if spread <= metric["bound"] else "noisy")
                print("%-11s %-18s %5s %11.6g %11.6g %11.6g %7.3f %11.3f %7s"
                      % (w, name, s, q1, med, q3, spread, metric["bound"],
                         label), end="")
                if s == "B":
                    win_frac, v = verdict(cols["A"], cols["B"], metric)
                    print(" %5.2f %s" % (win_frac, v), end="")
                print()
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"sides": sides, "seconds": seconds, "seed0": args.seed0,
                       "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
