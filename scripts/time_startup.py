#!/usr/bin/env python3
"""Time fresh starts of the ifbench CLI for one or more source trees.

    python3 scripts/time_startup.py --src SRC [--src SRC ...] [--runs N]

Each SRC is a directory that holds the ifbench package (for example `src`
of one checkout, then of another). The script first generates a one-family
suite and a scripted run of it into a temporary directory, with the first
SRC. It then makes N rounds; in each round it starts every command once per
SRC, as ``python -m ifbench.cli ...``, alternating which SRC goes first, and
takes the wall time of each process. The commands are ``generate --help``
(one CLI start-up, as the bench's ``setup_s`` on ``generate`` times it),
``report`` of that run, ``run --agent scripted`` of that suite, and
``generate`` of one instance. The caller's environment is passed on, so
``PYTHONDONTWRITEBYTECODE`` decides whether the sources are compiled on
every start. It prints one JSON object: per SRC and command, the median and
quartiles in milliseconds and the ifbench modules the command leaves in
``sys.modules`` (the CLI itself runs as ``__main__``), plus the runs, the bytecode setting, the CPU count and the
Python version.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 15
FAMILY = "basic-easy"
# lists the ifbench modules left when the command exits, --help included
LIST_MODULES = ("import atexit, runpy, sys\n"
                "atexit.register(lambda: print(*sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'ifbench'), file=sys.stderr))\n"
                "sys.argv = ['ifbench', *sys.argv[1:]]\n"
                "runpy.run_module('ifbench.cli', run_name='__main__')\n")


def commands(work: Path, out: Path) -> dict[str, list[str]]:
    return {
        "help": ["generate", "--help"],
        "report": ["report", "--results", str(work / "results"),
                   "--instances", str(work / "suite"), "--out", str(out / "report")],
        "run": ["run", "--instances", str(work / "suite"), "--agent", "scripted",
                "--out", str(out / "results")],
        "generate": ["generate", "--count", "1", "--families", FAMILY,
                     "--out", str(out / "suite")],
    }


def start(src: Path, argv: list[str], head=("-m", "ifbench.cli")):
    """Run ``python HEAD ARGV`` with ifbench from `src`; SystemExit with
    its stderr if it fails."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, *head, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"{src}: ifbench {' '.join(argv)} exited with "
                         f"{done.returncode}:\n{done.stderr}")
    return done


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", required=True,
                        help="directory that holds the ifbench package")
    parser.add_argument("--runs", type=int, default=RUNS,
                        help=f"fresh starts of each command per SRC (default {RUNS})")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    srcs = [Path(s).resolve() for s in args.src]

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        start(srcs[0], ["generate", "--count", "1", "--families", FAMILY,
                        "--out", str(work / "suite")])
        start(srcs[0], ["run", "--instances", str(work / "suite"),
                        "--agent", "scripted", "--out", str(work / "results")])
        outs = {src: work / f"out{k}" for k, src in enumerate(srcs)}
        ms = {src: {name: [] for name in commands(work, work)} for src in srcs}
        for round_ in range(args.runs):
            order = srcs if round_ % 2 == 0 else srcs[::-1]
            for name in commands(work, work):
                for src in order:
                    argv = commands(work, outs[src])[name]
                    started = time.perf_counter()
                    start(src, argv)
                    ms[src][name].append((time.perf_counter() - started) * 1e3)
        result = {}
        for src in srcs:
            result[str(src)] = {}
            for name, argv in commands(work, outs[src]).items():
                q1, median, q3 = statistics.quantiles(ms[src][name], n=4,
                                                      method="inclusive")
                listed = start(src, argv, head=("-c", LIST_MODULES))
                result[str(src)][name] = {
                    "median_ms": round(median, 1),
                    "q1_ms": round(q1, 1),
                    "q3_ms": round(q3, 1),
                    "modules": listed.stderr.splitlines()[-1],
                }
    print(json.dumps({
        "runs": args.runs,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "results": result,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
