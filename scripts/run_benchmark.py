#!/usr/bin/env python3
"""End-to-end benchmark run: generate the nine instance families (if their
files are missing), run an agent over them, and print the report tables.

Examples:
    python3 scripts/run_benchmark.py --agent heuristic --workdir out/
    python3 scripts/run_benchmark.py --agent llm --endpoint http://host/v1 \
        --model my-model --parallel 4 --workdir out/
"""

import argparse
import sys
from pathlib import Path

from ifbench.cli import main as cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="benchmark_out")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--agent", default="heuristic",
                        choices=["scripted", "heuristic", "llm"])
    parser.add_argument("--endpoint")
    parser.add_argument("--model")
    parser.add_argument("--parallel", type=int, default=1,
                        help="concurrent requests of --agent llm; the other "
                             "agents take one worker process per usable CPU")
    parser.add_argument("--families", default="all")
    args = parser.parse_args()

    work = Path(args.workdir)
    instances = work / "instances"
    if not instances.exists():
        code = cli(["generate", "--seed", str(args.seed),
                    "--families", args.families, "--out", str(instances)])
        if code != 0:
            return code

    run_args = ["run", "--instances", str(instances), "--agent", args.agent,
                "--out", str(work / "results"),
                "--families", args.families]
    if args.agent == "llm":
        if not args.endpoint or not args.model:
            parser.error("--endpoint and --model are required for --agent llm")
        run_args += ["--endpoint", args.endpoint, "--model", args.model,
                     "--parallel", str(args.parallel)]
    code = cli(run_args)
    if code != 0:
        return code

    return cli(["report", "--results", str(work / "results"),
                "--instances", str(instances), "--out", str(work / "report")])


if __name__ == "__main__":
    sys.exit(main())
