#!/usr/bin/env python3
"""Time the planner on a suite's stored instances, in this process.

    python3 scripts/time_solves.py --src SRC SUITE

Imports `ifbench` from the source directory SRC (for example `src` of one
checkout, then of another, to compare two versions on the same suite), loads
every ``*.json`` instance file under SUITE (or the one file SUITE), pins this
process to the lowest CPU it may run on, and solves every instance in each
of PASSES passes. Each solve's plan must equal the stored one. It prints one
JSON object: the solves and states expanded of one pass, the seconds of the
fastest pass, the microseconds per expanded state of that pass, each pass's
seconds, and the CPU, CPU count and Python version.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

PASSES = 5


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", required=True,
                        help="directory that holds the ifbench package")
    parser.add_argument("suite", help="a generated instance file or directory")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.src).resolve()))
    from ifbench.instance import load_instances
    from ifbench.planner import solve_optimal

    suite = Path(args.suite)
    files = sorted(suite.glob("*.json")) if suite.is_dir() else [suite]
    instances = [i for f in files for i in load_instances(f)]
    if not instances:
        parser.error(f"no instances under {suite}")
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    passes = []
    for _ in range(PASSES):
        states = 0
        started = time.perf_counter()
        for instance in instances:
            result = solve_optimal(instance)
            if result.actions != instance.optimal_plan:
                raise SystemExit(f"{instance.id}: the plan differs from the "
                                 "stored one")
            states += result.states_expanded
        passes.append(time.perf_counter() - started)
    best = min(passes)
    print(json.dumps({
        "suite": str(suite),
        "src": str(Path(args.src).resolve()),
        "solves": len(instances),
        "states_expanded": states,
        "seconds": round(best, 4),
        "us_per_state": round(best / states * 1e6, 2) if states else None,
        "passes_s": [round(p, 4) for p in passes],
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
