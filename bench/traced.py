"""One measured pass of ifbench commands inside this process, traced or not.

    python3 bench/traced.py --commands JSON --report OUT.json [--trace]

JSON is a list of ifbench CLI argument lists, run in order through
``ifbench.cli.main`` with the same arguments a user would type. With
``--trace`` the public functions listed in TARGETS are wrapped first, in
their own module and wherever another module imported them by name; the
wrappers keep spans and counts in memory and the per-layer metrics are
written to OUT.json when the pass ends, with the tracing overhead: the
number of spans times the cost of one wrapper, measured in the same process
on a function that does nothing, over the pass's wall time less that cost.
Without ``--trace`` the pass runs untraced, to check that tracing leaves the
outputs unchanged.

A span's self time is its duration minus the durations of the spans it
directly encloses; spans nest per thread, so the ``--parallel`` workers of a
run each keep their own stack.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from check import FAMILIES


class Tracer:
    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.counts: Counter = Counter()

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        """`fn` recorded as span `name`; `hook(tracer, frame, stack, args,
        result, error, duration_ns)` runs after each call, under the lock,
        with the call's own frame and the stack of its callers."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            # frame: name, time spent in enclosed spans, and that time by span name
            frame = [name, 0, Counter()]
            stack.append(frame)
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2][name] += duration
                with tracer.lock:
                    tracer.calls[name] += 1
                    tracer.self_ns[name] += duration - frame[1]
                    tracer.durations[name].append(duration)
                    if hook is not None:
                        hook(tracer, frame, stack, args, result, error, duration)

        return wrapper


# -- hooks: counts taken where the work happens ---------------------------------

def _on_solve(tracer, frame, stack, args, result, error, duration):
    in_generation = any(f[0] == "generate.family" for f in stack)
    if in_generation:
        tracer.counts["generate.solves"] += 1
    if error is not None:
        if type(error).__name__ == "Unsolvable" and in_generation:
            tracer.counts["generate.rejected_solves"] += 1
        return
    tracer.counts["planner.states_expanded"] += result.states_expanded
    # generate_basic throws away plans over the turn limit and samples again
    if stack and stack[-1][0] == "generate.basic" and result.length > 50:
        tracer.counts["generate.rejected_solves"] += 1


def _on_family(tracer, frame, stack, args, result, error, duration):
    if error is None:
        tracer.counts["generate.instances"] += len(result)
        tracer.counts[f"generate.{args[1]}.ns"] += duration


def _on_preexploration(tracer, frame, stack, args, result, error, duration):
    # a walk that is not found discards the base instance and its solve
    if type(error).__name__ == "WalkNotFound":
        tracer.counts["generate.rejected_solves"] += 1


def _on_episode(tracer, frame, stack, args, result, error, duration):
    if error is None:
        tracer.counts["episode_turns"] += len(result.turns)


def _on_write_episode(tracer, frame, stack, args, result, error, duration):
    if error is None:
        tracer.counts["transcript_bytes"] += Path(args[1]).stat().st_size


def _on_heuristic(tracer, frame, stack, args, result, error, duration):
    tracer.counts["agents.heuristic.self_ns"] += (
        duration - frame[2]["interpreter.execute"])


# (module, attribute, span name, hook)
TARGETS = (
    ("ifbench.planner", "solve_optimal", "planner.solve", _on_solve),
    ("ifbench.generate", "generate_family", "generate.family", _on_family),
    ("ifbench.generate", "generate_basic", "generate.basic", None),
    ("ifbench.generate", "generate_preexploration", "generate.preexploration",
     _on_preexploration),
    ("ifbench.pseudowords", "PseudowordMaker.make", "pseudowords.make", None),
    ("ifbench.world", "validate_state", "world.validate_state", None),
    ("ifbench.world", "apply_delta", "world.apply_delta", None),
    ("ifbench.world", "visible_facts", "world.visible_facts", None),
    ("ifbench.interpreter", "Engine.execute", "interpreter.execute", None),
    ("ifbench.interpreter", "run_episode", "interpreter.run_episode", _on_episode),
    ("ifbench.interpreter", "write_episode", "interpreter.write_episode",
     _on_write_episode),
    ("ifbench.grammar", "Parser.parse", "grammar.parse", None),
    ("ifbench.grammar", "Parser.ground", "grammar.ground", None),
    ("ifbench.grammar", "Parser.render", "grammar.render", None),
    ("ifbench.grammar", "build_parser", "grammar.build_parser", None),
    ("ifbench.agents", "HeuristicAgent.next_action", "agents.heuristic",
     _on_heuristic),
    ("ifbench.agents", "ScriptedAgent.from_plan", "agents.scripted.from_plan", None),
    ("ifbench.agents", "llm_chat", "agents.llm_chat", None),
    ("ifbench.grammar", "load_standard_actions", "data.load_standard_actions", None),
    ("ifbench.interpreter", "load_messages", "data.load_messages", None),
    ("ifbench.pseudowords", "load_english_words", "data.load_english_words", None),
    ("ifbench.world", "load_entity_catalogue", "data.load_entity_catalogue", None),
    ("ifbench.world", "load_room_catalogue", "data.load_room_catalogue", None),
    ("ifbench.instance", "load_instances", "instance.load_instances", None),
    ("ifbench.instance", "save_instances", "instance.save_instances", None),
    ("ifbench.instance", "instance_to_dot", "instance.instance_to_dot", None),
    ("ifbench.metrics", "aggregate", "metrics.aggregate", None),
    ("ifbench.cli", "cmd_report", "cli.report", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target, rebinding module-level names that refer to it."""
    for module_name, attr, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[leaf]
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(name, raw.__func__, hook)))
            continue
        wrapped = tracer.wrap(name, raw, hook)
        setattr(owner, leaf, wrapped)
        if owner_name:
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "ifbench":
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _p50(values: list[int]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics: counts, self times (totals over the pass) and
    per-call medians of whole durations."""
    c, s, d, n = t.calls, t.self_ns, t.durations, t.counts
    out = {
        "planner.solves": c["planner.solve"],
        "planner.states_expanded": n["planner.states_expanded"],
        "planner.us_per_state": _ratio(s["planner.solve"] / 1e3,
                                       n["planner.states_expanded"]),
        "planner.solve_ms_p50": _p50(d["planner.solve"]) / 1e6,
        "generate.solves_per_instance": _ratio(n["generate.solves"],
                                               n["generate.instances"]),
        "generate.rejected_solves": n["generate.rejected_solves"],
    }
    for family in FAMILIES:
        out[f"generate.{family}.s"] = n[f"generate.{family}.ns"] / 1e9
    for name in ("pseudowords.make", "world.validate_state", "world.apply_delta",
                 "world.visible_facts", "interpreter.execute"):
        out[f"{name}.calls"] = c[name]
        out[f"{name}.us"] = s[name] / 1e3
    out.update({
        "interpreter.execute_per_turn": _ratio(c["interpreter.execute"],
                                               n["episode_turns"]),
        "interpreter.run_episode.ms_p50": _p50(d["interpreter.run_episode"]) / 1e6,
        "interpreter.write_episode.us": s["interpreter.write_episode"] / 1e3,
        "interpreter.transcript_kb": n["transcript_bytes"] / 1024,
        "grammar.parse.us": s["grammar.parse"] / 1e3,
        "grammar.ground.us": s["grammar.ground"] / 1e3,
        "grammar.render.us": s["grammar.render"] / 1e3,
        "grammar.build_parser.calls": c["grammar.build_parser"],
        "agents.heuristic.self_us": n["agents.heuristic.self_ns"] / 1e3,
        "agents.scripted.from_plan.ms": s["agents.scripted.from_plan"] / 1e6,
        "agents.llm_chat.ms_p50": _p50(d["agents.llm_chat"]) / 1e6,
        "agents.llm_chat.calls": c["agents.llm_chat"],
    })
    for name in ("load_standard_actions", "load_messages", "load_english_words",
                 "load_entity_catalogue", "load_room_catalogue"):
        out[f"data.{name}.calls"] = c[f"data.{name}"]
    out.update({
        "instance.load_instances.ms": s["instance.load_instances"] / 1e6,
        "instance.save_instances.ms": s["instance.save_instances"] / 1e6,
        "instance.instance_to_dot.us": s["instance.instance_to_dot"] / 1e3,
        "metrics.aggregate.ms": s["metrics.aggregate"] / 1e6,
        "cli.report.s": s["cli.report"] / 1e9,
    })
    return out


def wrapper_cost_ns(rounds: int = 7, calls: int = 20_000) -> float:
    """Median time one traced call adds to an untraced one, measured on a
    function that does nothing, called inside an enclosing span."""
    def nothing():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("nothing", nothing)
    tracer.stack().append(["enclosing", 0, Counter()])
    costs = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(calls):
            nothing()
        raw = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter_ns() - start - raw) / calls)
    return statistics.median(costs)


def overhead_pct(tracer: Tracer, wall_s: float) -> float:
    """Tracing cost of a traced pass, as a share of the time the pass would
    have taken untraced."""
    cost_s = sum(tracer.calls.values()) * wrapper_cost_ns() / 1e9
    return cost_s / (wall_s - cost_s) * 100


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--commands", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from ifbench import cli

    tracer = Tracer()
    if args.trace:
        install(tracer)
    codes = []
    start = time.perf_counter()
    for argv in json.loads(args.commands):
        codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    metrics = {}
    if args.trace:
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_pct"] = overhead_pct(tracer, wall)
    report = {"codes": codes, "metrics": metrics}
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
