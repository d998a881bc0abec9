"""Run one workload of the koopmpc benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload control --seed 1 --seconds 30 --trace 0

The last line of standard output is the result: a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end figures, with ``--trace 1`` the per-layer ones.
The line before it records the environment, the sample counts and any gate
failure. See README.md in this directory for what each figure means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bench_env

WORKLOAD_NAMES = ("control", "control-saturated", "offline")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        bench_env.bootstrap()
    except bench_env.MissingProgramError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import bench_workloads

    work_dir = bench_env.ROOT / ".perfbench_work" / str(os.getpid())
    result, info = bench_workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    try:
        work_dir.parent.rmdir()
    except OSError:  # another run still uses it
        pass
    print(json.dumps({"environment": bench_env.environment(), **info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
