#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/gmfbench.exe and bin/gmfnetd.exe with dune (build
directory: $CARGO_TARGET_DIR, else .bench_build), then runs one workload.
The last line of standard output is the result JSON.  Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "survive")


def build(build_dir):
    targets = ["./perfbench/gmfbench.exe", "./bin/gmfnetd.exe"]
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir] + targets
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: build failed\n")
        sys.exit(2)
    exe = lambda path: os.path.join(build_dir, "default", path)
    return exe("perfbench/gmfbench.exe"), exe("bin/gmfnetd.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bench, gmfnetd = build(build_dir)
    if args.self_test:
        sys.exit(subprocess.run([bench, "selftest"]).returncode)
    env = {k: v for k, v in os.environ.items() if k != "GMFNET_JOBS"}
    cmd = [bench, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", os.path.join(HERE, "data"), "--gmfnetd", gmfnetd]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write("run.py: %s exited with %d\n" % (args.workload, proc.returncode))
        sys.exit(proc.returncode or 1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
