"""Command-line harness: instance generation, benchmark runs, interactive
play, planning, and report/graph export."""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

from .agents import HeuristicAgent, HumanAgent, LlmAgent, LlmConfig, ScriptedAgent
from .instance import (FAMILIES, INSTANCES_PER_FAMILY, Instance,
                       instance_to_dot, load_instances, save_instances)
from .interpreter import TURN_LIMIT, Engine, run_episode, write_episode
from .metrics import (EpisodeSummary, ExperimentScores, aggregate,
                      format_grid, format_overview, goal_success_rate,
                      scores_to_csv, scores_to_json)

DEFAULT_SEED = 17
# how many CPUs this process may run on
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _parse_families(value: str) -> tuple[str, ...]:
    if value in ("all", ""):
        return FAMILIES
    families = tuple(v.strip() for v in value.split(",") if v.strip())
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise SystemExit(f"unknown families: {', '.join(unknown)}")
    return families


def _generate_file(seed: int, family: str, count: int, out: Path) -> str:
    """Generate one family into `out`; return its summary line."""
    from .generate import generate_family
    instances = generate_family(seed, family, count)
    save_instances(instances, out / f"{family}.json", base_seed=seed)
    lengths = [i.optimal_length for i in instances]
    return (f"{family}: {len(instances)} instances, "
            f"optimal length {min(lengths)}-{max(lengths)} "
            f"(mean {sum(lengths) / len(lengths):.1f})")


def cmd_generate(args) -> int:
    """Generate the families in forked worker processes, one per usable CPU
    and whole families each, or in-process where there is one CPU, one
    family or no `fork`. Every family is seeded on its own, so the files and
    the printed lines, kept in family order, do not depend on the number of
    workers."""
    from .generate import GenerationExhausted
    families = _parse_families(args.families)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workers = min(USABLE_CPUS, len(families))
    try:
        if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
            for family in families:
                print(_generate_file(args.seed, family, args.count, out))
            return 0
        # Forked workers inherit the imported modules (numpy and the
        # generator's). The pool forks them all at the first submit, before
        # it starts its own thread, and `generate` starts none.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [pool.submit(_generate_file, args.seed, family,
                                   args.count, out) for family in families]
            for future in futures:
                print(future.result())
        finally:
            pool.shutdown(cancel_futures=True)
    except GenerationExhausted as exc:
        print(f"generation exhausted for {exc}", file=sys.stderr)
        return 1
    return 0


def _load_instance_set(path: str, families: tuple[str, ...]) -> list[Instance]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    instances = []
    for f in files:
        try:
            instances.extend(load_instances(f))
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    if families:
        instances = [i for i in instances if i.family in families]
    if not instances:
        raise SystemExit(f"no instances found under {path}")
    return instances


def _make_agent(engine: Engine, args):
    instance = engine.instance
    if args.agent == "scripted":
        return ScriptedAgent.from_plan(instance, instance.optimal_plan)
    if args.agent == "heuristic":
        return HeuristicAgent(engine)
    if args.agent == "human":
        return HumanAgent()
    if args.agent == "llm":
        if not args.endpoint or not args.model:
            raise SystemExit("--endpoint and --model are required for --agent llm")
        return LlmAgent(LlmConfig(endpoint=args.endpoint, model=args.model,
                                  temperature=args.temperature,
                                  max_tokens=args.max_tokens,
                                  timeout=args.timeout,
                                  retries=args.retries))
    raise SystemExit(f"unknown agent {args.agent!r}")


def run_benchmark(args) -> tuple[int, dict]:
    """Run every instance, write transcripts and scores; returns (exit, scores).
    `args` are the parsed arguments of the `run` command."""
    instances = _load_instance_set(args.instances,
                                   _parse_families(args.families))
    agent_name = args.model if args.agent == "llm" else args.agent
    agent_dir = Path(args.out) / agent_name.replace("/", "_")

    def run_one(instance: Instance):
        engine = Engine(instance)
        agent = _make_agent(engine, args)
        record = run_episode(instance, agent, args.turn_limit, engine)
        family_dir = agent_dir / instance.family
        family_dir.mkdir(parents=True, exist_ok=True)
        write_episode(record, family_dir / f"{instance.id}.jsonl")
        return record

    if args.parallel > 1 and args.agent != "human":
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            records = list(pool.map(run_one, instances))
    else:
        records = [run_one(i) for i in instances]

    summaries = [EpisodeSummary.from_record(r) for r in records]
    if args.dry_run:
        summaries = [s for s in summaries if s.outcome != "aborted-agent"]
    per_family: dict[str, list[EpisodeSummary]] = {}
    for summary in sorted(summaries, key=lambda s: s.instance_id):
        per_family.setdefault(summary.family, []).append(summary)
    scores = [aggregate(group, family)
              for family, group in sorted(per_family.items())]
    if not scores:
        print("no episodes produced scores", file=sys.stderr)
        return 2, {}
    agent_dir.mkdir(parents=True, exist_ok=True)
    payload = scores_to_json(agent_name, scores)
    (agent_dir / "scores.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    rows = [{"agent": agent_name, **asdict(s)} for s in scores]
    (agent_dir / "scores.csv").write_text(scores_to_csv(rows), encoding="utf-8")
    print(f"{agent_name}: clemscore {payload['clemscore']:.1f} "
          f"(quality {payload['macro_quality']:.1f}, "
          f"played {payload['macro_played']:.1f}, "
          f"goal rate {payload['macro_gsr']:.1f})")
    all_agent_aborted = all(r.outcome == "aborted-agent" for r in records)
    return (3 if all_agent_aborted else 0), payload


def cmd_run(args) -> int:
    code, _ = run_benchmark(args)
    return code


def _pick_instance(args) -> Instance:
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
    instance = _pick_instance(args)
    record = run_episode(instance, HumanAgent(), args.turn_limit)
    gsr = goal_success_rate(len(record.final_goals_achieved), record.goals_total)
    print(f"--- {record.outcome} after {len(record.turns)} turns; "
          f"goal success rate {gsr:.0f} ---")
    return 0


def cmd_plan(args) -> int:
    instance = _pick_instance(args)
    print(json.dumps({
        "instance_id": instance.id,
        "actions": [instance.parser.render(a, instance.world)
                    for a in instance.optimal_plan],
        "length": instance.optimal_length,
    }, indent=1, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    results = Path(args.results)
    score_files = sorted(results.glob("*/scores.json"))
    if not score_files:
        print(f"no scores.json under {results}", file=sys.stderr)
        return 1
    overview_rows = []
    per_agent: dict[str, list[ExperimentScores]] = {}
    for path in score_files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        overview_rows.append(payload)
        per_agent[payload["agent"]] = [
            ExperimentScores.from_json(name, v)
            for name, v in payload["experiments"].items()]
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
            graph_dir = out / "graphs"
            graph_dir.mkdir(exist_ok=True)
            for instance in _load_instance_set(args.instances, ()):
                (graph_dir / f"{instance.id}.dot").write_text(
                    instance_to_dot(instance), encoding="utf-8")
        print(f"\nreport artifacts written to {out}")
    return 0


def _at_least(low, kind=int):
    """An argparse type: a `kind` number, rejected below `low`."""
    def convert(text: str):
        value = kind(text)
        if not value >= low:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
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
    p.add_argument("--count", type=_at_least(1), default=INSTANCES_PER_FAMILY)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run a benchmark")
    p.add_argument("--instances", required=True)
    p.add_argument("--agent", required=True,
                   choices=["scripted", "heuristic", "human", "llm"])
    p.add_argument("--out", required=True)
    p.add_argument("--families", default="all")
    p.add_argument("--parallel", type=_at_least(1), default=1)
    p.add_argument("--turn-limit", type=_at_least(1), default=TURN_LIMIT)
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--temperature", type=_at_least(0, float), default=0.0)
    p.add_argument("--max-tokens", type=int, default=128)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retries", type=_at_least(0), default=2)
    p.add_argument("--dry-run", action="store_true",
                   help="exclude agent-unreachable episodes from scoring")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("play", help="play one instance interactively")
    p.add_argument("--instances", required=True)
    p.add_argument("--id")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--turn-limit", type=_at_least(1), default=TURN_LIMIT)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("plan", help="print the stored optimal plan of an instance")
    p.add_argument("--instances", required=True)
    p.add_argument("--id")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_plan)

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
