#!/usr/bin/env python3
"""The mutation ledger: for each check in the package, a test that fails
without it.

    python3 scripts/check_mutants.py

Run from the repository root. It makes one mutant per ``raise`` statement in
``src/ifbench/*.py``: that module with the statement replaced by ``pass``,
line numbers kept. Each mutant runs Tier-1 (``pytest -x -q -p
no:cacheprovider --continue-on-collection-errors``, the test files fastest
first, bar the ledger's own test) in a copy of the tree. A mutant is
*killed* when a test fails, *survives* when every test passes, and *times
out* when the suite runs past four times the unmutated suite's time (at
least 60 s). The test file times come from one run of the unmutated suite,
which must pass. One mutant per usable CPU runs at a time, each in its own
copy; run it under ``taskset`` to give it fewer CPUs.

It prints the three counts, then the file, line and source of each survivor
and each mutant that timed out, and exits 1 if a survivor is not on ALLOWED.

ALLOWED maps a raise, as (file, its source with runs of whitespace made one
space), to the reason that no test can feed it its input; an entry covers
each raise of that text in that file, so it outlives edits elsewhere.
`allowed_unmatched` lists the entries that name no raise; a Tier-1 test keeps
it empty. Standard library only.
"""

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "ifbench")
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                     ".pytest_cache", ".bench_out",
                                     "*.egg-info")
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
# the ledger's own test reads the raises, so it fails on every mutant whose
# raise is on ALLOWED; it tests this script, not the package
OWN_TEST = "tests/test_check_mutants.py"

ALLOWED: dict[tuple[str, str], str] = {}


class Mutant(NamedTuple):
    file: str  # a module of the package, e.g. "world.py"
    line: int
    source: str  # the raise, whitespace collapsed
    text: str  # the module with the raise made `pass`


def mutants(root: Path = ROOT) -> list[Mutant]:
    """One mutant per raise statement of the package under `root`, by file
    and line: the module with the raise replaced by ``pass`` and as many
    line breaks as it spanned, so later lines keep their numbers."""
    found = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        data = path.read_bytes()  # ast's column offsets count UTF-8 bytes
        offsets = [0]  # where each line starts
        for line in data.splitlines(keepends=True):
            offsets.append(offsets[-1] + len(line))
        for node in ast.walk(ast.parse(data)):
            if not isinstance(node, ast.Raise):
                continue
            start = offsets[node.lineno - 1] + node.col_offset
            end = offsets[node.end_lineno - 1] + node.end_col_offset
            after = offsets[node.end_lineno]  # the line after the raise
            text = b"".join([data[:start], b"pass", data[end:after],
                             b"\n" * (node.end_lineno - node.lineno),
                             data[after:]])
            found.append(Mutant(path.name, node.lineno,
                                " ".join(data[start:end].decode().split()),
                                text.decode()))
    return sorted(found, key=lambda m: (m.file, m.line))


def allowed_unmatched(found: list[Mutant]) -> list[tuple[str, str]]:
    """The ALLOWED entries that name no raise of `found`."""
    present = {(m.file, m.source) for m in found}
    return [key for key in ALLOWED if key not in present]


def _env(tree: Path) -> dict:
    """The environment Tier-1 runs in, in `tree`: its package first on the
    path, no bytecode written (a restored module must not meet a stale one)."""
    path = [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": os.pathsep.join(path)}


def _run(tree: Path, files: list[str], timeout: float) -> str:
    """Tier-1 in `tree`: "killed", "survived" or "timed out"."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no replays
    proc = subprocess.Popen([sys.executable, *PYTEST, "-x", *files], cwd=tree,
                            env=_env(tree), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # with any workers it forked
        proc.wait()
        return "timed out"
    return "survived" if code == 0 else "killed"


def _fastest_first(tree: Path) -> tuple[list[str], float]:
    """The test files in order of their time in one unmutated run, and that
    run's seconds; SystemExit if it fails."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *PYTEST, "--durations=0",
                           "--durations-min=0"], cwd=tree, env=_env(tree),
                          capture_output=True, text=True)
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"the unmutated suite fails:\n{done.stdout[-2000:]}")
    spent = {path.relative_to(tree).as_posix(): 0.0
             for path in sorted((tree / "tests").glob("test_*.py"))}
    for took, file in re.findall(r"^([\d.]+)s \w+ +(tests/[^:]+)::",
                                 done.stdout, re.M):
        spent[file] = spent.get(file, 0.0) + float(took)
    return sorted(set(spent) - {OWN_TEST}, key=spent.get), seconds


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    jobs = len(os.sched_getaffinity(0))
    found = mutants()
    for mutant in found:  # a mutant that did not parse would pass as killed
        compile(mutant.text, mutant.file, "exec")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies = [Path(scratch, str(n)) for n in range(jobs)]
        trees = Queue()  # the copies no mutant runs in now
        for tree in copies:
            shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
            trees.put(tree)
        files, suite_s = _fastest_first(copies[0])
        timeout = max(60.0, 4 * suite_s)

        def verdict(mutant: Mutant) -> str:
            tree = trees.get()
            module = tree / PACKAGE / mutant.file
            original = module.read_text(encoding="utf-8")
            try:
                module.write_text(mutant.text, encoding="utf-8")
                return _run(tree, files, timeout)
            finally:
                module.write_text(original, encoding="utf-8")
                trees.put(tree)

        with ThreadPoolExecutor(jobs) as pool:
            verdicts = list(pool.map(verdict, found))
    counts = {v: verdicts.count(v) for v in ("killed", "survived", "timed out")}
    print(f"{len(found)} mutants: {counts['killed']} killed, "
          f"{counts['survived']} survived, {counts['timed out']} timed out "
          f"({jobs} jobs, {time.perf_counter() - started:.0f} s, "
          f"timeout {timeout:.0f} s)")
    unexplained = 0
    for mutant, v in zip(found, verdicts):
        if v == "killed":
            continue
        reason = ALLOWED.get((mutant.file, mutant.source))
        unexplained += v == "survived" and reason is None
        print(f"{v}: {PACKAGE / mutant.file}:{mutant.line}: {mutant.source}"
              + (f"\n    allowed: {reason}" if reason else ""))
    for file, source in allowed_unmatched(found):
        print(f"allow-list entry names no raise: {file}: {source}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
