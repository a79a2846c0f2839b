#!/usr/bin/env python3
"""End-to-end PGO pipeline benchmark.

Builds the benchmark executable from the checkout's sources with dune,
then runs one workload:

    python3 e2ebench/run.py --workload report-haas --seed 3 --seconds 20 --trace 0

Run it from the root of the repository. The last line of standard output
is the JSON result; see e2ebench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("report-servers", "report-haas", "fleet-hhvm")
EXE = os.path.join(ROOT, "_build", "default", "e2ebench", "main.exe")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="rewrite e2ebench/expected/<workload>.txt (seed 0 only)")
    args = ap.parse_args()

    # The build stays inside the checkout: dune's shared cache is off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./e2ebench/main.exe"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.exit("e2ebench: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", HERE]
    if args.write_expected:
        cmd.append("--write-expected")
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
