"""Command-line harness: instance generation, benchmark runs, interactive
play, planning, and report/graph export; `run` and `report` both score the
summary lines through `metrics.score_summaries`. Each command imports the
modules it runs in its own body, so a start-up loads only what it runs."""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .instance import Instance
    from .metrics import ExperimentScores

DEFAULT_SEED = 17
# how many CPUs this process may run on
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _parse_families(value: str) -> tuple[str, ...]:
    from .instance import FAMILIES
    if value in ("all", ""):
        return FAMILIES
    families = tuple(v.strip() for v in value.split(",") if v.strip())
    if not families:
        raise SystemExit(f"--families {value!r} names no family")
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise SystemExit(f"unknown families: {', '.join(unknown)}")
    return families


_worker_fn = None  # what `_fork_map` maps, inside one of its workers


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(item):
    return _worker_fn(item)


def _fork_map(fn, items, cost=None):
    """Yield `fn(item)` for each of `items`, in their order, computed in
    forked worker processes, one per usable CPU; or in this process where
    there is one usable CPU, one item, or no `fork`.

    Given `cost`, an estimate of an item's work, the workers take the items
    in decreasing cost, so that the last to start are the smallest and the
    workers finish close together; the results still come in input order.
    Only the items and the results are pickled: `fn` may be a closure over
    anything this process holds, which each worker inherits through the fork.
    The pool forks every worker at the first submit, before it starts its
    own thread, so the caller must be running no thread of its own. When an
    item raises, the exception is raised here and the items not yet started
    are cancelled."""
    items = list(items)
    workers = min(USABLE_CPUS, len(items))
    if workers > 1:  # the pool's modules are loaded only where it may fork
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        for item in items:
            yield fn(item)
        return
    # a forked worker gets its initializer's arguments without pickling
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_worker_fn, initargs=(fn,))
    try:
        order = range(len(items))
        if cost is not None:
            order = sorted(order, key=lambda k: cost(items[k]), reverse=True)
        futures = {k: pool.submit(_call_worker_fn, items[k]) for k in order}
        for k in range(len(items)):
            yield futures[k].result()
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_generate(args) -> int:
    """Generate whole families through `_fork_map`. Every family is seeded
    on its own, so the files and the printed lines, kept in family order, do
    not depend on the number of workers."""
    from . import generate
    from .instance import INSTANCES_PER_FAMILY, save_instances
    count = INSTANCES_PER_FAMILY if args.count is None else args.count
    families = _parse_families(args.families)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def generate_file(family: str) -> str:
        """Generate one family into `out`; return its summary line."""
        instances = generate.generate_family(args.seed, family, count)
        save_instances(instances, out / f"{family}.json", base_seed=args.seed)
        lengths = [i.optimal_length for i in instances]
        return (f"{family}: {len(instances)} instances, "
                f"optimal length {min(lengths)}-{max(lengths)} "
                f"(mean {sum(lengths) / len(lengths):.1f})")

    try:
        for line in _fork_map(generate_file, families):
            print(line)
    except generate.GenerationExhausted as exc:
        print(f"generation exhausted for {exc}", file=sys.stderr)
        return 1
    return 0


def _load_instance_set(path: str, families: tuple[str, ...]) -> list[Instance]:
    """The instances of a file, or of every ``*.json`` file of a directory;
    given `families` (as `run` is), only those of them. SystemExit naming
    the file if one does not load (or the path, if nothing is there), the
    instances when two share an id, which names an episode's output files,
    and, given `families`, when one's is unknown."""
    from .instance import FAMILIES, load_instances
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    instances: list[Instance] = []
    where_id: dict[str, str] = {}
    for f in files:
        try:
            loaded = load_instances(f)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        for index, instance in enumerate(loaded):
            where = f"{f}: instance {index} ({instance.id})"
            if instance.id in where_id:
                raise SystemExit(f"{where_id[instance.id]} and {where} "
                                 "have the same id")
            where_id[instance.id] = where
            if families and instance.family not in FAMILIES:
                raise SystemExit(f"{where}: unknown family {instance.family!r}")
        instances += loaded
    if families:
        instances = [i for i in instances if i.family in families]
    if not instances:
        raise SystemExit(f"no instances found under {path}")
    return instances


def _make_agent(instance: Instance, args):
    from .agents import (HeuristicAgent, HumanAgent, LlmAgent, LlmConfig,
                         ScriptedAgent)
    if args.agent == "scripted":
        return ScriptedAgent.from_plan(instance)
    if args.agent == "heuristic":
        return HeuristicAgent()
    if args.agent == "human":
        return HumanAgent()
    # llm, the last of the choices that argparse allows
    return LlmAgent(LlmConfig(endpoint=args.endpoint, model=args.model,
                              temperature=args.temperature,
                              max_tokens=args.max_tokens, timeout=args.timeout,
                              retries=args.retries))


def run_benchmark(args) -> int:
    """The `run` command: play every instance, write the transcripts and
    the scores of their summaries, and return the exit code.

    `scripted` and `heuristic` play whole families through `_fork_map`;
    `llm` waits on the network, so it plays in `--parallel` threads; `human`
    reads stdin, so it plays one episode after another. Episodes share no
    state, so the outputs do not depend on the number of workers."""
    import json
    from dataclasses import asdict
    from .interpreter import run_episode, write_episode
    from .metrics import score_summaries, scores_to_csv
    if args.parallel > 1 and args.agent != "llm":
        raise SystemExit(f"--parallel applies to --agent llm only, "
                         f"not to --agent {args.agent}")
    if args.agent == "llm" and not (args.endpoint and args.model):
        raise SystemExit("--endpoint and --model are required for --agent llm")
    instances = _load_instance_set(args.instances, _parse_families(args.families))
    agent_name = args.model if args.agent == "llm" else args.agent
    agent_dir = Path(args.out) / agent_name.replace("/", "_")

    def play(instance: Instance) -> dict:
        """Play and write one episode; return its summary without the final
        state and agent log, which are on disk and which no score reads."""
        episode = run_episode(instance, _make_agent(instance, args))
        family_dir = agent_dir / instance.family
        family_dir.mkdir(parents=True, exist_ok=True)
        summary = write_episode(episode, family_dir / f"{instance.id}.jsonl")
        del summary["final_state"], summary["agent_log"]
        return summary

    if args.agent in ("scripted", "heuristic"):
        by_family: dict[str, list[Instance]] = {}
        for instance in instances:
            by_family.setdefault(instance.family, []).append(instance)
        # a family's plan steps stand for its cost to play
        played = _fork_map(
            lambda family: [play(i) for i in by_family[family]], by_family,
            cost=lambda family: sum(len(i.optimal_plan) for i in by_family[family]))
        summaries = [summary for family in played for summary in family]
    elif args.parallel > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            summaries = list(pool.map(play, instances))
    else:
        summaries = [play(i) for i in instances]

    all_agent_aborted = all(s["outcome"] == "aborted-agent" for s in summaries)
    scores, payload = score_summaries(agent_name, summaries)
    agent_dir.mkdir(parents=True, exist_ok=True)
    (agent_dir / "scores.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    rows = [{"agent": agent_name, **asdict(s)} for s in scores]
    (agent_dir / "scores.csv").write_text(scores_to_csv(rows), encoding="utf-8")
    print(f"{agent_name}: clemscore {payload['clemscore']:.1f} (quality "
          f"{payload['macro_quality']:.1f}, played {payload['macro_played']:.1f}, "
          f"goal rate {payload['macro_gsr']:.1f})")
    return 3 if all_agent_aborted else 0


def _pick_instance(args) -> Instance:
    """The instance that `--id` or `--index` names."""
    instances = _load_instance_set(args.instances, ())
    if args.id:
        matches = [i for i in instances if i.id == args.id]
        if not matches:
            raise SystemExit(f"no instance with id {args.id}")
        return matches[0]
    if not 0 <= args.index < len(instances):
        raise SystemExit(f"--index {args.index} is out of range: {args.instances}"
                         f" holds {len(instances)} instances")
    return instances[args.index]


def cmd_play(args) -> int:
    """The `play` command: one episode at the terminal."""
    from .agents import HumanAgent
    from .interpreter import episode_summary, run_episode
    from .metrics import goal_success_rate
    episode = run_episode(_pick_instance(args), HumanAgent())
    summary = episode_summary(episode)
    gsr = goal_success_rate(len(summary["goals_achieved"]), summary["goals_total"])
    print(f"--- {summary['outcome']} after {summary['turns']} turns; "
          f"goal success rate {gsr:.0f} ---")
    return 0


def cmd_plan(args) -> int:
    """The `plan` command: an instance's optimal plan, as loading read it."""
    import json
    instance = _pick_instance(args)
    print(json.dumps({
        "instance_id": instance.id,
        "actions": list(instance.plan_commands),
        "length": instance.optimal_length,
    }, indent=1, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    """The `report` command: score each agent directory with a finished run
    (a ``scores.json``) from its transcripts' summary lines, as `run` does;
    the agent is named by its directory."""
    from .interpreter import read_episode_summary
    from .metrics import format_grid, format_overview, score_summaries
    results = Path(args.results)
    agent_dirs = sorted(p.parent for p in results.glob("*/scores.json"))
    if not agent_dirs:
        print(f"no scores.json under {results}", file=sys.stderr)
        return 1
    overview_rows = []
    per_agent: dict[str, list[ExperimentScores]] = {}
    for agent_dir in agent_dirs:
        paths = sorted(agent_dir.glob("*/*.jsonl"))
        if not paths:
            print(f"no transcripts under {agent_dir}", file=sys.stderr)
            return 1
        try:
            summaries = [read_episode_summary(path) for path in paths]
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        scores, row = score_summaries(agent_dir.name, summaries)
        per_agent[agent_dir.name] = scores
        overview_rows.append(row)
    print(format_overview(overview_rows))
    print()
    print(format_grid(per_agent))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        turns_rows = ["agent,experiment,mean_turns,mean_optimal_turns"]
        for agent in sorted(per_agent):
            for s in sorted(per_agent[agent], key=lambda s: s.experiment):
                optimal = "" if s.mean_optimal_turns is None else f"{s.mean_optimal_turns:.4f}"
                turns_rows.append(f"{agent},{s.experiment},{s.mean_turns:.4f},{optimal}")
        (out / "turns.csv").write_text("\n".join(turns_rows) + "\n",
                                       encoding="utf-8")
        if args.instances:
            from .instance import instance_to_dot
            graph_dir = out / "graphs"
            graph_dir.mkdir(exist_ok=True)
            for instance in _load_instance_set(args.instances, ()):
                (graph_dir / f"{instance.id}.dot").write_text(
                    instance_to_dot(instance), encoding="utf-8")
        print(f"\nreport artifacts written to {out}")
    return 0


def _at_least(low, kind=int, strict=False, most=None):
    """An argparse type: a `kind` number, at least `low` (above it if
    `strict`) and, given `most`, at most `most`."""
    def convert(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):  # also rejects nan
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {text}")
        return value
    convert.__name__ = kind.__name__  # argparse names it in its errors
    return convert


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifbench",
        description="Deterministic interactive-fiction benchmark engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate instance files")
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--families", default="all")
    p.add_argument("--count", type=_at_least(1))  # default: INSTANCES_PER_FAMILY
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run a benchmark")
    p.add_argument("--instances", required=True)
    p.add_argument("--agent", required=True,
                   choices=["scripted", "heuristic", "human", "llm"])
    p.add_argument("--out", required=True)
    p.add_argument("--families", default="all")
    p.add_argument("--parallel", type=_at_least(1), default=1)
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--temperature", type=_at_least(0, float), default=0.0)
    p.add_argument("--max-tokens", type=_at_least(1), default=128)
    # a longer timeout overflows the socket's deadline on every request
    p.add_argument("--timeout", default=30.0, type=_at_least(
        0, float, strict=True, most=threading.TIMEOUT_MAX))
    p.add_argument("--retries", type=_at_least(0), default=2)
    p.set_defaults(func=run_benchmark)

    for name, func, text in (
            ("play", cmd_play, "play one instance interactively"),
            ("plan", cmd_plan, "print the stored optimal plan of an instance")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--instances", required=True)
        p.add_argument("--id")
        p.add_argument("--index", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="print score tables, export graphs/CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--instances")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
