#!/usr/bin/env python3
"""Runs one workload on several seeds and reports, per metric, the median
and the quartile spread (Q3 - Q1) as a share of the median -- the figure
the benchmark's bounds are set against.

Run from the repository root:

    python3 perfbench/spread.py --workload write --seeds 1-5 [--seconds 10]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    """`1-5` is a range, `1,1,2` a list (repeats allowed)."""
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds[name]
        flag = ""
        if spread > bound:
            flag = "  <-- OVER BOUND"
        elif spread > bound / 3 and name != "setup_s":
            flag = "  <-- above a third of the bound"
        print(f"{name:34s} median {med:14.4f}  spread {spread:7.2%}  bound {bound}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
