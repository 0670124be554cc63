"""Acceptance suite: one test per criterion, each printed in the terminal
summary as criterion N PASS/FAIL."""

import hashlib
import os
import runpy
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from ifbench import (Engine, Episode, ScriptedAgent, aggregate,
                     combine_clemscore, episode_summary,
                     load_standard_actions, run_episode, solve_optimal)
import ifbench.cli
from ifbench.cli import main
from ifbench.generate import catalogue_vocabulary
from ifbench.grammar import Lexicon
from ifbench.metrics import paper_pct, scores_to_json
from ifbench.pseudowords import PseudowordMaker
from ifbench.world import validate_state
from oracles import (apply_lexicon, brute_force_optimal, micro_corpus,
                     micro_instance, reference_solve, unpruned_candidates)

# SHA-256 of the scored outputs of `generate --seed 17`, `run --agent
# scripted` and `report` (turns.csv holds the scripted rows only). A change
# that alters them on purpose updates these and records the old and new
# hashes in CHANGES.md.
SEED17_OUTPUT_SHA256 = {
    "results/scripted/scores.json":
        "ea17672f7dc39a052ab1fea81bbb78274602eaa500ef1465e847661e8efb0c86",
    "results/scripted/scores.csv":
        "5adbfd0487695e511a807ae94915f0a289f261a2714b3a925d80b20ad93a83a7",
    "report/turns.csv":
        "56ed5db719accad9d96df6e0313833887a6787fda8ff7d6f10f4502bb70818a1",
}

# SHA-256 that `scripts/artifact_digest.py 17` prints: its tree digest over
# every file of `generate --seed 17`, `run` scripted and heuristic and
# `report --instances --out`, transcripts included.
SEED17_TREE_SHA256 = (
    "76fa90749a700baad0daef677daad8141dcf451a95743a4919c036920cea4bea")

# Published overview rows: (clemscore, quality score, % played)
TABLE1_ROWS = [
    (86.4, 88.2, 97.9), (68.7, 79.2, 86.8), (52.7, 56.2, 93.8),
    (43.8, 49.2, 89.2), (40.1, 43.3, 92.5), (39.8, 46.5, 85.4),
    (15.9, 28.8, 55.4), (12.0, 25.0, 47.9), (11.2, 21.2, 52.9),
    (8.2, 20.6, 39.9),
]

# Published per-experiment quality/played cells for the six reported models
TABLE2_CELLS = [
    75.0, 100, 75.0, 87.5, 68.7, 100, 62.5, 100, 56.2, 100, 62.5, 100,
    81.2, 93.7, 87.5, 93.7, 43.7, 87.5, 31.2, 87.5, 18.7, 93.7, 56.2, 87.5,
    75.0, 100, 75.0, 93.7, 87.5, 100, 68.7, 100, 68.7, 100, 93.7, 100,
    93.7, 93.7, 75.0, 75.0, 37.5, 87.5, 50.0, 93.7, 31.2, 100, 37.5, 56.2,
    81.2, 100, 87.5, 100, 68.7, 100, 62.5, 100, 50.0, 100, 68.7, 100,
    93.7, 93.7, 93.7, 93.7, 31.2, 87.5, 37.5, 87.5, 31.2, 93.7, 31.2, 56.2,
    100, 100, 87.5, 100, 81.2, 100, 68.7, 93.7, 43.7, 93.7, 43.7, 100,
    100, 100, 43.7, 43.7, 43.7, 81.2, 37.5, 50.0, 18.7, 50.0, 25.0, 81.2,
    93.7, 100, 87.5, 93.7, 43.7, 100, 12.5, 87.5, 43.75, 93.75, 0.0, 87.5,
]


def _summary(outcome, achieved=3, total=3):
    counts = {"format-fail": 0, "parse-fail": 0, "resolution-fail": 0,
              "precondition-fail": 0, "success": 5}
    return {"type": "summary", "instance_id": "x", "family": "f",
            "outcome": outcome, "turns": 5, "goals_total": total,
            "goals_achieved": [f"on(item{i},table)" for i in range(achieved)],
            "phase_counts": counts, "grounded_turns": 5, "epistemic_turns": 0,
            "pragmatic_turns": 0, "optimal_length": 5}


def test_criterion_1_metric_arithmetic_oracle():
    started = time.perf_counter()
    for reported, quality, played in TABLE1_ROWS:
        recomputed = combine_clemscore(quality, played)
        assert abs(recomputed - reported) <= 0.1, (reported, recomputed)
    assert time.perf_counter() - started < 1.0


def test_criterion_2_sixteen_instance_denominators():
    for value in TABLE2_CELLS:
        nearest = round(value / 6.25) * 6.25
        assert abs(value - nearest) <= 0.051, value
    thirteen_of_sixteen = aggregate([_summary("success")] * 13
                                    + [_summary("lost", achieved=0)] * 3)
    assert thirteen_of_sixteen.quality == 81.25
    assert paper_pct(thirteen_of_sixteen.quality) == "81.2"
    fifteen_of_sixteen = aggregate([_summary("success")] * 15
                                   + [_summary("aborted-turn-limit",
                                               achieved=0)])
    assert fifteen_of_sixteen.played_pct == 93.75
    assert paper_pct(fifteen_of_sixteen.played_pct) == "93.7"


def test_criterion_3_oracle_agent_perfection(oracle_records):
    records = oracle_records.records
    assert len(records) == 144
    per_family = {}
    for instance, record in records.values():
        # the stored plan is optimal: a fresh search finds no shorter one
        fresh = solve_optimal(instance)
        assert instance.optimal_length == fresh.length, instance.id
        assert record.outcome == "success", instance.id
        assert all(t.phase_outcome == "success" for t in record.turns)
        assert len(record.turns) == fresh.length
        per_family.setdefault(instance.family, []).append(
            episode_summary(record))
    scores = [aggregate(group, family)
              for family, group in sorted(per_family.items())]
    assert all(s.played_pct == 100.0 for s in scores)
    assert all(s.quality == 100.0 for s in scores)
    assert all(s.gsr == 100.0 for s in scores)
    payload = scores_to_json("oracle", scores)
    assert payload["clemscore"] == 100.0
    assert payload["macro_gsr"] == 100.0
    assert oracle_records.elapsed < 120.0


def test_criterion_4_planner_equivalence():
    started = time.perf_counter()
    corpus = micro_corpus()
    assert len(corpus) >= 50
    for inst in corpus:
        pruned = solve_optimal(inst).length
        unpruned = reference_solve(inst, unpruned_candidates(inst))[0].length
        brute = brute_force_optimal(inst)
        assert pruned == unpruned == brute, inst.id
    assert time.perf_counter() - started < 300.0


def test_criterion_5_lexicon_isomorphism(bench144):
    started = time.perf_counter()
    instances = [inst for family in sorted(bench144)
                 for inst in bench144[family]]
    checked = 0
    for index, base in enumerate(instances):
        if checked >= 100:
            break
        rng = np.random.default_rng([4242, index])
        maker = PseudowordMaker(rng, forbidden=catalogue_vocabulary()
                                | {e.noun for e in base.entities})
        nouns = sorted({e.noun for e in base.entities}
                       | {r.noun for r in base.rooms})
        picked = [nouns[int(rng.integers(len(nouns)))] for _ in range(4)]
        replaceable = [a.verb for a in base.actions
                       if a.flags.replaceable]
        lexicon = Lexicon(
            nouns={n: maker.make() for n in dict.fromkeys(picked)},
            verbs={v: maker.make() for v in replaceable[:2]})
        mapped = apply_lexicon(base, lexicon)
        assert solve_optimal(mapped).length == base.optimal_length
        # the base plan, stored as ids, replays to success on the mapped game
        record = run_episode(mapped, ScriptedAgent.from_plan(mapped))
        assert record.outcome == "success"
        assert len(record.turns) == base.optimal_length
        checked += 1
    assert checked == 100
    assert time.perf_counter() - started < 120.0


def test_criterion_6_difficulty_invariants(bench144):
    for inst in bench144["basic-easy"]:
        assert all(a.action != "open" for a in inst.optimal_plan), inst.id
    for inst in bench144["basic-hard"]:
        opens = [a for a in inst.optimal_plan if a.action == "open"]
        assert len(opens) >= 3, inst.id
        targets = [g.fact.args[1] for g in inst.goals]
        assert len(set(targets)) == len(targets), inst.id
    for family in ("preexplore-easy", "preexplore-hard"):
        for inst in bench144[family]:
            assert 6 <= len(inst.preexploration) <= 8, inst.id
            engine = Engine(inst)
            state = inst.start_state()
            for command, feedback in inst.preexploration:
                state, record = engine.execute(state, command)
                assert record.phase_outcome == "success"
                assert record.feedback == feedback, inst.id


def _fuzz_commands(rng, inst, engine):
    verbs = sorted(engine.parser.actions)
    nouns = sorted([engine.parser.surface_of(e.id) for e in inst.entities]
                   + [engine.parser.surface_of(r.id) for r in inst.rooms]
                   + ["inventory", "spoon"])
    roll = rng.random()
    if roll < 0.03:
        return "no prompt symbol here"
    if roll < 0.06:
        return "> " + " ".join(nouns[int(rng.integers(len(nouns)))]
                               for _ in range(int(rng.integers(1, 3))))
    verb = verbs[int(rng.integers(len(verbs)))]
    if roll < 0.12:
        return f"> {verb}"
    picks = [nouns[int(rng.integers(len(nouns)))]
             for _ in range(int(rng.integers(1, 3)))]
    joiner = " on " if rng.random() < 0.3 else " "
    return f"> {verb} " + joiner.join(picks)


def test_criterion_7_interaction_fuzz(bench144):
    rng = np.random.default_rng(20240817)
    corpus = [bench144["basic-easy"][0], bench144["basic-hard"][0],
              bench144["limit-easy"][0], bench144["limit-hard"][0],
              bench144["synthetic-medium"][0], bench144["synthetic-hard"][0]]
    engines = {inst.id: Engine(inst) for inst in corpus}
    total_turns = 0
    saw_format_abort = saw_turn_limit = 0
    while total_turns < 10_000:
        inst = corpus[int(rng.integers(len(corpus)))]
        engine = engines[inst.id]
        episode = Episode(inst)
        while not episode.done and total_turns < 10_000:
            before = episode.state
            raw = _fuzz_commands(rng, inst, engine)
            record = episode.step(raw)
            total_turns += 1
            validate_state(engine.world, episode.state)
            if record.phase_outcome != "format-fail":
                assert record.feedback  # non-empty on every non-aborting turn
            if record.phase_outcome != "success":
                assert episode.state == before
                assert not record.removes and not record.adds
        if episode.outcome == "aborted-format":
            saw_format_abort += 1
        if episode.outcome == "aborted-turn-limit":
            saw_turn_limit += 1
    assert saw_format_abort > 0
    assert total_turns == 10_000

    # turn-50 abort always triggers without a terminal action
    quiet = run_episode(corpus[0], ScriptedAgent(["> look"] * 60))
    assert quiet.outcome == "aborted-turn-limit" and len(quiet.turns) == 50

    # inventory limit 2 blocks the third take in the precondition phase
    limited = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("counter", "support", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"]),
                  ("peach", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "on(plate,counter)", "on(apple,counter)", "on(peach,counter)"],
        goals=["in(plate,inventory)"], inventory_limit=2)
    engine = Engine(limited)
    state = limited.start_state()
    for raw in ("> take apple", "> take peach"):
        state, record = engine.execute(state, raw)
        assert record.phase_outcome == "success"
    blocked_state, record = engine.execute(state, "> take plate")
    assert record.phase_outcome == "precondition-fail"
    assert "carry more than two objects" in record.feedback
    assert blocked_state.facts == state.facts


def test_criterion_8_epistemic_accounting(bench144):
    expected_flags = {
        "open": (True, True), "close": (False, True), "take": (False, True),
        "put": (False, True), "go": (True, True), "done": (False, True),
        "examine": (True, False), "look": (False, False)}
    actions = {a.verb: a for a in load_standard_actions()}
    assert len(actions) == 8
    for verb, (epistemic, pragmatic) in expected_flags.items():
        assert (actions[verb].flags.epistemic,
                actions[verb].flags.pragmatic) == (epistemic, pragmatic), verb

    for family in ("basic-easy", "basic-hard", "preexplore-hard"):
        for inst in bench144[family][:5]:
            engine = Engine(inst)
            episode = Episode(inst)
            # rooms already seen count as visited (pre-exploration included)
            visited = {f.args[1] for f in episode.observed
                       if f.predicate == "at" and f.args[0] == "player"}
            observed_sizes = [len(episode.observed)]
            for action in inst.optimal_plan:
                raw = "> " + engine.parser.render(action)
                record = episode.step(raw)
                observed_sizes.append(len(episode.observed))
                if (action.action == "go"
                        and episode.state.player_room not in visited):
                    visited.add(episode.state.player_room)
                    assert record.epistemic_gain >= 1, inst.id
            assert observed_sizes == sorted(observed_sizes), inst.id


def test_criterion_9_end_to_end_determinism(tmp_path, monkeypatch):
    def tree(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    runs = []
    # generated in-process, then by one worker process per usable CPU
    for tag, cpus in (("one", 1), ("two", ifbench.cli.USABLE_CPUS)):
        monkeypatch.setattr(ifbench.cli, "USABLE_CPUS", cpus)
        base = tmp_path / tag
        assert main(["generate", "--seed", "17",
                     "--out", str(base / "instances")]) == 0
        assert main(["run", "--instances", str(base / "instances"),
                     "--agent", "scripted", "--out", str(base / "results")]) == 0
        assert main(["report", "--results", str(base / "results"),
                     "--instances", str(base / "instances"),
                     "--out", str(base / "report")]) == 0
        runs.append(tree(base))
    assert runs[0] == runs[1]
    assert {name: hashlib.sha256(runs[0][name]).hexdigest()
            for name in SEED17_OUTPUT_SHA256} == SEED17_OUTPUT_SHA256
    # the first tree completed to the artifact digest's: a heuristic run,
    # then a report of both agents in place of the scripted one
    base = tmp_path / "one"
    assert main(["run", "--instances", str(base / "instances"),
                 "--agent", "heuristic", "--out", str(base / "results")]) == 0
    shutil.rmtree(base / "report")
    assert main(["report", "--results", str(base / "results"),
                 "--instances", str(base / "instances"),
                 "--out", str(base / "report")]) == 0
    script = Path(__file__).parents[1] / "scripts" / "artifact_digest.py"
    assert runpy.run_path(str(script))["tree_digest"](base) == SEED17_TREE_SHA256


@pytest.mark.skipif(not os.environ.get("IFBENCH_SMOKE_ENDPOINT"),
                    reason="live endpoint not configured "
                           "(set IFBENCH_SMOKE_ENDPOINT and IFBENCH_SMOKE_MODEL)")
def test_criterion_10_live_llm_smoke(bench144, tmp_path):
    endpoint = os.environ["IFBENCH_SMOKE_ENDPOINT"]
    model = os.environ.get("IFBENCH_SMOKE_MODEL", "gpt-4o-mini")
    from ifbench.instance import save_instances
    save_instances(bench144["basic-easy"][:5], tmp_path / "five.json",
                   base_seed=17)
    code = main(["run", "--instances", str(tmp_path / "five.json"),
                 "--agent", "llm", "--endpoint", endpoint, "--model", model,
                 "--out", str(tmp_path / "results")])
    assert code in (0, 3)
    agent_dir = tmp_path / "results" / model.replace("/", "_")
    transcripts = list(agent_dir.rglob("*.jsonl"))
    assert len(transcripts) == 5
    assert (agent_dir / "scores.json").exists()
