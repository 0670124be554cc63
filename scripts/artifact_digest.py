#!/usr/bin/env python3
"""One SHA-256 over the artifacts of a seeded benchmark pipeline.

    PYTHONPATH=src python3 scripts/artifact_digest.py SEED OUTDIR

Run from the repository root (or with ifbench installed). Runs `generate --seed SEED`, `run --agent scripted`, `run --agent heuristic`
and `report --instances --out` into OUTDIR, which must not exist yet or be
empty, and prints the SHA-256 over the tree's files: each file's path
relative to OUTDIR, its size and its bytes, in sorted path order. The
commands' own output goes to stderr. Two builds that print the same digest
wrote byte-identical trees.
"""

import contextlib
import hashlib
import sys
from pathlib import Path

from ifbench.cli import main as cli


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p)
                   for p in root.rglob("*") if p.is_file())
    for relative, path in files:
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[0].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    seed, out = argv[0], Path(argv[1])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    instances, results = str(out / "instances"), str(out / "results")
    commands = [
        ["generate", "--seed", seed, "--out", instances],
        ["run", "--instances", instances, "--agent", "scripted", "--out", results],
        ["run", "--instances", instances, "--agent", "heuristic", "--out", results],
        ["report", "--results", results, "--instances", instances,
         "--out", str(out / "report")],
    ]
    with contextlib.redirect_stdout(sys.stderr):
        for command in commands:
            code = cli(command)
            if code != 0:
                print(f"ifbench {command[0]} exited with {code}")
                return code
    print(tree_digest(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
