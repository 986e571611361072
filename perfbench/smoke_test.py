#!/usr/bin/env python3
"""The benchmark's own test: a smoke-length run of every workload.

    python3 perfbench/smoke_test.py [--seconds 2]

For each workload in BENCHMARK.json, and for p2p_tcp, it checks that a
run exits 0, passes its output checks with no failed operation, and
prints exactly the end-to-end metrics (untraced) and the per-layer
metrics (traced) that BENCHMARK.json names, each finite and, end to
end, above zero.

It also checks that:
* a second seed changes the inputs (payloads, values, due times). The
  metrics of both seeds are printed side by side with their bound; at
  smoke length that comparison is informational, steady.py is the check
  (it gives every run its own seed);
* on p2p_shm a traced and an untraced run with the same seed take the
  same protocol path: equal rendezvous and copied-byte ratios, so the
  timing wrapper keeps the shm zero-copy promotion on.

Exits 1 on the first failed check.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {out.returncode}")
    info = next(l for l in lines if l.startswith("inputs "))
    return json.loads(lines[-1]), info


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def check_result(r, names, workload, label, positive):
    expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
           f"{workload} {label}: checks pass, no failed operation")
    got = r["metrics"]
    expect(set(got) == {m["name"] for m in names}, f"{workload} {label}: metric names")
    for m in names:
        v = got[m["name"]]
        good = v["unit"] == m["unit"] and math.isfinite(v["value"])
        good = good and (v["value"] > 0 if positive else v["value"] >= 0)
        if not good:
            sys.exit(f"FAIL {workload} {label}: {m['name']} = {v}")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    # p2p_tcp runs like the others but is not among the gated workloads
    # (README, "Steadiness"); its checks still have to pass.
    for w in [w["name"] for w in spec["workloads"]] + ["p2p_tcp"]:
        first, info1 = run(w, 1, args.seconds, 0)
        check_result(first, spec["end_to_end"], w, "seed 1", True)
        second, info2 = run(w, 2, args.seconds, 0)
        check_result(second, spec["end_to_end"], w, "seed 2", True)
        expect(info1.split(";")[0] != info2.split(";")[0], f"{w}: seed 2 changes the inputs")
        for m in spec["end_to_end"]:
            a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
            worse = (b - a) / a * (-1 if m["better"] == "higher" else 1)
            print(f"     {m['name']:<12} seed 1 {a:10.4g}  seed 2 {b:10.4g}  "
                  f"worse by {worse:+.3f} (bound {m['bound']})")
        traced, tinfo = run(w, 1, args.seconds, 1)
        check_result(traced, spec["per_layer"], w, "traced", False)
        if w == "p2p_shm":
            expect(tinfo.split(";")[2] == info1.split(";")[2],
                   f"{w}: traced and untraced runs take the same protocol path "
                   f"({info1.split(';')[2].strip()})")
    print("smoke test passed")


if __name__ == "__main__":
    main()
