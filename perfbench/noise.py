#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/noise.py --workload fleet --seeds 1-10 [--seconds S]

Runs perfbench/run.py once per seed (untraced) and prints, per metric,
the median, the quartiles and the spread (Q3 - Q1) / median as
statistics.quantiles(values, n=4) gives them, next to the bound in
BENCHMARK.json.  The raw results go to stderr as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        sys.stderr.write(json.dumps({"seed": seed, **result}) + "\n")
        if not result["correct"]:
            sys.exit("noise.py: seed %d: incorrect result" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-18s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print("%-18s %12.4f %12.4f %12.4f %8.3f %6.2f"
              % (m["name"], med, q1, q3, (q3 - q1) / med, m["bound"]))


if __name__ == "__main__":
    main()
