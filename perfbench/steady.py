#!/usr/bin/env python3
"""Steadiness check: how far the benchmark's figures move between runs.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seconds S]
                                [--workload NAME]... [--seed-base N]

Runs `--sets` sets of `--runs` runs of each workload (all workloads in
BENCHMARK.json by default), alternating between the sets, each run with
its own seed. For every end-to-end metric it prints each set's median,
quartiles and spread (quartile distance over median), and whether the
sets agree: every spread but setup_s's within the metric's bound, the
second median no worse than the first by more than the bound, and the
same share of failed operations. Exits 1 if any check fails. This is
how the bounds in BENCHMARK.json were set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """One untraced run; returns the parsed last line of its output."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    ok = True
    for w in workloads:
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                seed = args.seed_base + args.sets * i + s
                r = run_once(w, seed, args.seconds)
                if not r["correct"]:
                    print(f"{w} seed {seed}: output check failed")
                    ok = False
                sets[s].append(r)
        print(f"== {w} ({args.runs} runs per set, {args.seconds} s each)")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        print(f"  failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            cells = []
            for rs in sets:
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                cells.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}")
                if name != "setup_s" and spread > bound:
                    ok = False
            verdict = ""
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                agree = worse <= bound
                ok &= agree
                verdict = f" | B worse than A by {worse:+.3f}: {'agree' if agree else 'DISAGREE'}"
            print(f"  {name:<12} bound {bound:<5} " + " | ".join(cells) + verdict)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
