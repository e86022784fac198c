#!/usr/bin/env python3
"""Runs every workload repeatedly and prints each end-to-end metric's
spread across runs next to its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...] [--seconds S]

Run i uses seed first-seed + i. The spread is the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median. The exit code is 1 when a run fails or is incorrect, or when a
spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values, shares = {}, set()
        for i in range(args.runs):
            r, wall = run_once(workload, args.first_seed + i, args.seconds)
            ok &= r["correct"]
            shares.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in r["metrics"].items())
            print(f"{workload} seed {args.first_seed + i} ({wall:.1f} s): "
                  f"{shown}", flush=True)
        ok &= len(shares) == 1
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}"
              f" {'spread/bound':>12}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "" if spread <= bound else "  OVER"
            if spread > bound and name != "setup_s":
                ok = False
            print(f"  {name:<20} {med:>12.6g} {spread:>8.2%} {bound:>6.0%}"
                  f" {spread / bound:>12.2f}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
