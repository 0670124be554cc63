"""Self-checking benchmark of the ifbench CLI.

    python3 bench/run.py --workload NAME [--seed 17] [--seconds 18] [--trace 0|1]

Workloads (see bench/README.md for why each exists):

- ``generate``: ``ifbench generate`` of the nine-family suite;
- ``run-scripted``: ``ifbench run --agent scripted`` over that suite;
- ``run-heuristic``: ``ifbench run --agent heuristic`` then ``ifbench report``;
- ``llm-stub``: ``ifbench run --agent llm --parallel 2`` against the stub
  model endpoint in bench/stub.py.

Each run sets up, then makes whole passes of the workload's commands, each a
fresh CLI process: ``--seconds`` divided by the workload's reference pass
time, and at least two. It checks the outputs with bench/check.py and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the end-to-end metrics. With ``--trace 1`` it instead makes
one untraced and one traced pass in-process (bench/traced.py), checks that
they match, and prints the per-layer metrics and the tracing overhead. The
seed is the suite's generation seed and also places the stub's failures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402

WORKLOADS = ("generate", "run-scripted", "run-heuristic", "llm-stub")
ITEMS_PER_PASS = len(check.FAMILIES) * check.PER_FAMILY
# two halves of about equal generation and solving cost, set up side by side
SETUP_SPLIT = ("basic-hard,limit-hard,synthetic-hard",
               "basic-easy,limit-easy,preexplore-easy,preexplore-hard,"
               "synthetic-easy,synthetic-medium")
# one step in INJECT_EVERY of a stub script is preceded by a failing command,
# of a kind drawn uniformly. The mix is synthetic: it is not taken from real
# model traffic, of which the repository holds no transcripts yet.
INJECT_EVERY = 4
UNKNOWN_VERBS = ("juggle", "whistle", "yodel")
UNKNOWN_NOUNS = ("zeppelin", "harpsichord", "walrus")


# While the stub runs, it and the measured ifbench process share one CPU, the
# last this run may use. Each turn hands over from client to stub and back;
# on two CPUs every hand-over wakes an idle virtual CPU, and on a shared host
# that wait, not the program, set the time: llm-stub passes took 11-17 s apart
# against 9.4-10.7 s on one CPU, alternated over one set-up. On one CPU the
# --parallel threads never contend for the interpreter lock across CPUs, so
# that cost of --parallel does not show here. Without the stub, ifbench
# processes get every CPU. The two set-up commands that run side by side get
# half of the CPUs each; unpinned, run-heuristic's set-up time spread six
# times as wide.
CPUS = sorted(os.sched_getaffinity(0))
STUB_CPU = CPUS[-1]
SETUP_CPUS = (set(CPUS[:len(CPUS) // 2]) or set(CPUS), set(CPUS[len(CPUS) // 2:]))
# Reference seconds per pass: a run makes max(MIN_PASSES, round(seconds /
# this)) passes. The count is fixed rather than timed because pass k runs with
# Python hash seed k, which sets the layout of every set and dict and with it
# up to 20% of a pass's time (llm-stub); so every run averages over the same
# layouts. Set-up and the stub use hash seed 0.
PASS_SECONDS = {"generate": 11, "run-scripted": 9, "run-heuristic": 3.5,
                "llm-stub": 10}
# two passes at least, so that every run checks determinism
MIN_PASSES = 2


def spawn(argv: list[str], cwd: Path, hash_seed: int, out,
          cpus: set[int] | None = None) -> subprocess.Popen:
    """Start a child with this checkout's sources and no proxies, on `cpus`
    if given."""
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed),
               NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
    return subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                            stderr=subprocess.STDOUT,
                            preexec_fn=None if cpus is None
                            else lambda: os.sched_setaffinity(0, cpus))


class Child:
    """Outcome of one child process: exit code, wall time, peak RSS."""

    def __init__(self, argv: list[str], cwd: Path, log: Path, hash_seed: int,
                 cpus: set[int] | None):
        start = time.perf_counter()
        with open(log, "ab") as fh:
            proc = spawn(argv, cwd, hash_seed, fh, cpus)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.seconds = time.perf_counter() - start
        self.rss_mb = usage.ru_maxrss / 1024
        self.cpu_seconds = usage.ru_utime + usage.ru_stime


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.suite = work / "suite"
        self.log = work / "log.txt"
        self.problems: list[str] = []
        self.stub = None
        self.stub_log = None
        self.port = None
        self.script: dict = {}

    # -- processes -------------------------------------------------------------

    def ifbench(self, *args: str, hash_seed: int = 0) -> Child:
        child = Child([sys.executable, "-m", "ifbench.cli", *args], self.work,
                      self.log, hash_seed, self.cpus())
        if child.code != 0:
            self.problems.append(f"ifbench {args[0]} exited with {child.code}")
        return child

    def cpus(self) -> set[int] | None:
        """The CPUs of an ifbench process: the stub's while it runs."""
        return {STUB_CPU} if self.stub is not None else None

    def side_by_side(self, make_args) -> None:
        """Run one ifbench command per half of the families at once."""
        procs = []
        with open(self.log, "ab") as fh:
            for i, families in enumerate(SETUP_SPLIT):
                procs.append(spawn(
                    [sys.executable, "-m", "ifbench.cli", *make_args(i, families)],
                    self.work, 0, fh, SETUP_CPUS[i]))
            for proc in procs:
                if proc.wait() != 0:
                    self.problems.append(f"set-up command exited with {proc.returncode}")

    def start_stub(self, script_path: Path) -> None:
        port_file = self.work / "stub.port"
        self.stub_log = open(self.work / "stub.log", "wb")
        self.stub = spawn([sys.executable, str(BENCH / "stub.py"), "--script",
                           str(script_path), "--port-file", str(port_file)],
                          self.work, 0, self.stub_log, {STUB_CPU})
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.stub.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("stub endpoint did not start")
            time.sleep(0.01)
        self.port = int(port_file.read_text(encoding="utf-8"))

    def stub_stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub = None
        if self.stub_log is not None:
            self.stub_log.close()
            self.stub_log = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """Set up and return the set-up time. A CLI start-up (which also
        compiles the sources once) is all `generate` needs, so it is taken
        three times and the median reported; the others generate the suite
        and llm-stub also solves it and starts the stub, which is long enough
        to take once."""
        def warm() -> float:
            return self.ifbench("generate", "--help").seconds
        if self.workload == "generate":
            warm()
            return statistics.median(warm() for _ in range(3))
        start = time.perf_counter()
        warm()
        self.side_by_side(lambda i, fams: [
            "generate", "--seed", str(self.seed), "--families", fams,
            "--out", str(self.suite)])
        if self.workload == "llm-stub":
            self.side_by_side(lambda i, fams: [
                "run", "--instances", str(self.suite), "--agent", "scripted",
                "--families", fams, "--out", str(self.work / f"plans{i}")])
            script_path = self.work / "stub_script.json"
            self.script = self.make_script()
            script_path.write_text(json.dumps(self.script), encoding="utf-8")
            self.start_stub(script_path)
        return time.perf_counter() - start

    def make_script(self) -> dict:
        """The stub's replies: each instance's optimal plan, read from the
        scripted transcripts, with a failing command before one step in
        INJECT_EVERY (chosen by the seed): an unknown verb, `examine` of an
        unknown noun, or `go` to the room the player is in."""
        suite = check.load_suite(self.suite)
        plans = {}
        for i in range(len(SETUP_SPLIT)):
            episodes, problems = check.read_transcripts(
                self.work / f"plans{i}" / "scripted",
                {k: v for k, v in suite.items() if v["family"] in SETUP_SPLIT[i].split(",")})
            self.problems.extend(problems + check.check_scripted(episodes))
            plans.update({iid: [t["raw"] for t in turns]
                          for iid, (turns, _) in episodes.items()})
        script = {}
        for iid, inst in suite.items():
            plan = plans.get(iid, [])
            rng = random.Random(f"{self.seed}/{iid}")
            verbs, nouns = _vocabulary(inst)
            verb = next(v for v in UNKNOWN_VERBS if v not in verbs and v not in nouns)
            noun = next(n for n in UNKNOWN_NOUNS if n not in verbs and n not in nouns)
            start, _, _, _ = check.locations(inst)
            room = check.surface(inst, next(r["noun"] for r in inst["rooms"]
                                            if r["id"] == start))
            replies, kinds = [], []
            for command in plan:
                if rng.randrange(INJECT_EVERY) == 0 and len(plan) + len(replies) < check.TURN_LIMIT:
                    kind = rng.choice(("parse-fail", "resolution-fail", "precondition-fail"))
                    replies.append({"parse-fail": f"> {verb}",
                                    "resolution-fail": f"> examine {noun}",
                                    "precondition-fail": f"> go {room}"}[kind])
                    kinds.append(kind)
                replies.append(command)
                kinds.append("plan")
                if command.startswith("> go "):
                    room = command[len("> go "):]
            script[inst["prompt"]] = {"id": iid, "pre": len(inst.get("preexploration") or ()),
                                      "replies": replies, "kinds": kinds}
        return script

    # -- passes ----------------------------------------------------------------

    def pass_commands(self, out: Path) -> list[list[str]]:
        """The CLI commands of one pass, writing under `out`."""
        if self.workload == "generate":
            return [["generate", "--seed", str(self.seed), "--out", str(out)]]
        run = ["run", "--instances", str(self.suite), "--out", str(out / "results")]
        if self.workload == "run-scripted":
            return [run + ["--agent", "scripted"]]
        if self.workload == "run-heuristic":
            return [run + ["--agent", "heuristic"],
                    ["report", "--results", str(out / "results"),
                     "--instances", str(self.suite), "--out", str(out / "report")]]
        return [run + ["--agent", "llm", "--parallel", "2", "--model", "stub",
                       "--endpoint", f"http://127.0.0.1:{self.port}/v1"]]

    def measured_pass(self, index: int) -> dict:
        out = self.work / f"pass{index}"
        children = [self.ifbench(*argv, hash_seed=index)
                    for argv in self.pass_commands(out)]
        result = {"out": out, "seconds": sum(c.seconds for c in children),
                  "cpu_seconds": sum(c.cpu_seconds for c in children),
                  "rss_mb": max(c.rss_mb for c in children),
                  "ok": all(c.code == 0 for c in children)}
        if self.workload == "llm-stub":
            result["stats"] = self.stub_stats()
        return result

    def traced_pass(self, out: Path, trace: bool) -> dict:
        report = self.work / f"{out.name}.json"
        argv = [sys.executable, str(BENCH / "traced.py"), "--report", str(report),
                "--commands", json.dumps(self.pass_commands(out))]
        child = Child(argv + (["--trace"] if trace else []), self.work, self.log, 1,
                      self.cpus())
        data = json.loads(report.read_text(encoding="utf-8")) if report.exists() else {}
        ok = child.code == 0 and bool(data.get("codes")) and not any(data["codes"])
        if not ok:
            self.problems.append(f"{out.name} failed")
        result = {"out": out, "metrics": data.get("metrics", {}), "ok": ok}
        if self.workload == "llm-stub":
            result["stats"] = self.stub_stats()
        return result

    # -- checks ----------------------------------------------------------------

    def verify(self, passes: list[dict]) -> None:
        """Check the first pass's outputs; later passes must match it byte
        for byte."""
        first = passes[0]["out"]
        digest = check.tree_digest(first)
        for p in passes[1:]:
            if check.tree_digest(p["out"]) != digest:
                self.problems.append(f"{p['out'].name} differs from {first.name}")
        data_dir = SRC / "ifbench" / "data"
        if self.workload == "generate":
            self.problems.extend(check.check_suite(first, data_dir))
            return
        self.problems.extend(check.check_suite(self.suite, data_dir))
        suite = check.load_suite(self.suite)
        agent = {"run-scripted": "scripted", "run-heuristic": "heuristic",
                 "llm-stub": "stub"}[self.workload]
        agent_dir = first / "results" / agent
        episodes, problems = check.read_transcripts(agent_dir, suite)
        self.problems.extend(problems)
        if problems:
            return
        self.problems.extend(check.check_scores(agent_dir, episodes))
        if self.workload == "run-scripted":
            self.problems.extend(check.check_scripted(episodes))
        elif self.workload == "run-heuristic":
            self.problems.extend(check.check_heuristic(episodes))
            self.problems.extend(check.check_report(first / "report", suite, agent_dir))
        else:
            for p in passes:
                self.problems.extend(check.check_stub(episodes, self.script, p["stats"]))

    # -- the run ---------------------------------------------------------------

    def run(self, trace: bool) -> dict:
        setup_s = self.setup()
        if trace:
            passes = [self.traced_pass(self.work / "untraced", False),
                      self.traced_pass(self.work / "traced", True)]
        else:
            count = max(MIN_PASSES, round(self.seconds / PASS_SECONDS[self.workload]))
            passes = [self.measured_pass(k) for k in range(1, count + 1)]
        try:
            self.verify(passes)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.problems.append(f"outputs could not be checked: {exc!r}")
        failed = sum(ITEMS_PER_PASS for p in passes if not p["ok"])
        metrics = (self.layer_metrics(passes) if trace
                   else self.end_to_end(setup_s, passes))
        return {"correct": not self.problems, "attempted": ITEMS_PER_PASS * len(passes),
                "failed": failed, "metrics": metrics}

    def end_to_end(self, setup_s: float, passes: list[dict]) -> dict:
        rates = [ITEMS_PER_PASS / p["seconds"] for p in passes]
        print("pass seconds: " + " ".join(f"{p['seconds']:.3f}" for p in passes))
        print("pass cpu seconds: " + " ".join(f"{p['cpu_seconds']:.3f}" for p in passes))
        if self.workload == "llm-stub":
            gaps = [[g / 1e6 for g in p["stats"]["gaps_ns"]] for p in passes]
            print("gap samples per pass: " + " ".join(str(len(g)) for g in gaps))
            p50 = statistics.median(statistics.median(g) for g in gaps)
            p90 = statistics.median(statistics.quantiles(g, n=10)[8] for g in gaps)
        else:
            # no model endpoint: the harness's time per item of each pass
            per_item = [1e3 / r for r in rates]
            p50 = statistics.median(per_item)
            p90 = statistics.quantiles(per_item, n=10, method="inclusive")[8]
        return {"setup_s": setup_s,
                "items_per_s": statistics.median(rates),
                "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
                "gap_ms_p50": p50, "gap_ms_p90": p90}

    def layer_metrics(self, passes: list[dict]) -> dict:
        traced = passes[-1]
        metrics = dict(traced["metrics"])
        llm_calls = metrics.pop("agents.llm_chat.calls", 0)
        stats = traced.get("stats") or {"requests": 0, "connections": 0, "request_bytes": 0}
        requests = stats["requests"]
        metrics.update({
            "agents.llm.request_kb_mean": requests and stats["request_bytes"] / 1024 / requests,
            "agents.llm.connections_per_request": requests and stats["connections"] / requests,
            "agents.llm.attempts_per_call": llm_calls and requests / llm_calls,
        })
        return metrics


def _vocabulary(inst: dict) -> tuple[set[str], set[str]]:
    """Surface verbs and noun words of an instance, from its file."""
    lex = inst.get("lexicon") or {}
    verbs = {(lex.get("verbs") or {}).get(v, v) for v in inst["base_verbs"]}
    verbs |= {a["verb"] for a in inst["extra_actions"]}
    nouns = set()
    for row in inst["entities"] + inst["rooms"]:
        nouns.update(check.surface(inst, row["noun"]).split())
    return verbs, nouns


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ifbench" / "cli.py").is_file():
        print(f"no ifbench sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, work)
    try:
        result = bench.run(bool(args.trace))
    finally:
        bench.close()
    values = result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 2
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
