import copy
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import ifbench.generate
import ifbench.instance
import ifbench.interpreter
from ifbench import (TURN_LIMIT, Engine, HeuristicAgent, PlanResult,
                     ScriptedAgent, Unsolvable, apply_delta, fact,
                     generate_basic, generate_family, generate_preexploration,
                     instance_to_dot, load_instances, run_episode,
                     save_instances, solve_optimal)
from ifbench.generate import (FAMILIES, INVENTORY_LIMIT, Rng,
                              catalogue_vocabulary)
from ifbench.grammar import GroundedAction, Lexicon, action_from_json
from ifbench.pseudowords import PseudowordMaker, load_english_words
from ifbench.world import ENGINE_PREDICATES
from oracles import apply_lexicon, micro_instance

WORD_RE = re.compile(r"^[a-z]{4,8}$")

# SHA-256 of each file `ifbench generate --seed 17` writes. A change that
# alters a byte of the suite on purpose updates these and records the old and
# new hashes in CHANGES.md.
SEED17_SHA256 = {
    "basic-easy": "de5d21b82124b746fd299c419f23dd50e623945628d18805db045f695dcb20e5",
    "basic-hard": "11660dd5dbd03348bc7606cd3a7073652ecb6a768e7b553fbe8970d58d10d3f2",
    "limit-easy": "ac521cdb246f140f63c98209882723cf01475c3356867972bd3dbe7a09714058",
    "limit-hard": "7f9f799ecf233454f869399cc1ffdb8f6e5fec0b4c7bd04fa6e8c64a89f5e491",
    "preexplore-easy": "0b8b13bc39261b1005448e563320cf30171bd4c1d15e86d279b5767f2f1a5c58",
    "preexplore-hard": "a851cb05e184336977977a73b0f91cb4959946de5ad3551af9f1824a4fe9ee87",
    "synthetic-easy": "4c73b518c2987891058c9bff911ceefd0a7e3a7518c0d33fef004075b9ac6af0",
    "synthetic-hard": "fa7a8699bb343663f81372f70941ff1d05e97e87fdb3337dd96c5bc7d6fb05e5",
    "synthetic-medium": "20c8295c5eee4a522fb56af70f4a2f66340eb4efe7e40c19bd36fdbafa30e6eb",
}

# The same files as schema 1 wrote them: without `optimal_plan` and with
# `schema_version` 1, so storing the plan changed nothing else in the suite.
SEED17_SCHEMA1_SHA256 = {
    "basic-easy": "c578a8a0a54f3ff06172aca236f255fe2904d253bb452c59cb738dac3cef3f32",
    "basic-hard": "ee28a4d0e699ac253b38b76560ec4d6001c3be6411ba6bb2b0a95148fd869137",
    "limit-easy": "cbd41627abce74e263b722e11f2dd1973c5defaf1c0ef4cff94e7caed1a1b997",
    "limit-hard": "dac1d04b877cce530d545eb56d3145a8319f83255d6a0c7cc252dd4dc13c4d4c",
    "preexplore-easy": "acec657595bbd35f42ee5308ec499823eb49dd27d3cbf8c4cccbdb36510b4a15",
    "preexplore-hard": "7b4536302d3a39b6106f32ebb42394269a487b2555be148c38103d8216a839a8",
    "synthetic-easy": "46b56c25052d317efd4401a3ef93add25d3633c2dfbccb8c4e576a2f0d629e1f",
    "synthetic-hard": "e48f208557b6424f651f37841b8a8186029a97474af4568719a1c90a2693e08f",
    "synthetic-medium": "95853f87bcc160c1ab01a55f2f0dc4f3531bbd9edc29589c7c72b79dce2c878b",
}


def _item_location(inst, item):
    for f in inst.initial_facts:
        if f.predicate in ("at", "on", "in") and f.args[0] == item:
            return f
    raise AssertionError(f"{item} not placed")


def _receptacle_rooms(inst):
    return {f.args[0]: f.args[1] for f in inst.initial_facts
            if f.predicate == "at" and f.args[0] != "player"}


def _distance(inst, a, b):
    adj = {}
    for x, y in inst.connections:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    frontier, dist = {a}, 0
    seen = {a}
    while frontier:
        if b in frontier:
            return dist
        frontier = {n for r in frontier for n in adj[r]} - seen
        seen |= frontier
        dist += 1
    raise AssertionError("disconnected")


def test_same_seed_same_instance():
    a = generate_basic(Rng(5), "easy")
    b = generate_basic(Rng(5), "easy")
    assert a.to_json() == b.to_json()


def test_generated_counts(bench144):
    assert set(bench144) == set(FAMILIES)
    assert all(len(v) == 16 for v in bench144.values())
    assert sum(len(v) for v in bench144.values()) == 144


def test_easy_invariants(bench144):
    for inst in bench144["basic-easy"]:
        rooms = _receptacle_rooms(inst)
        assert len(inst.goals) == 3
        for goal in inst.goals:
            item, target = goal.fact.args
            loc = _item_location(inst, item)
            assert loc.predicate != "in"  # never inside a container
            item_room = loc.args[1] if loc.predicate == "at" else rooms[loc.args[1]]
            assert _distance(inst, item_room, rooms[target]) <= 1
            assert goal.fact not in inst.start_state().facts


def test_hard_invariants(bench144):
    for inst in bench144["basic-hard"]:
        rooms = _receptacle_rooms(inst)
        targets = [g.fact.args[1] for g in inst.goals]
        assert len(set(targets)) == 3  # pairwise distinct targets
        hiders = []
        for goal in inst.goals:
            item, target = goal.fact.args
            loc = _item_location(inst, item)
            assert loc.predicate == "in"
            hider = loc.args[1]
            hiders.append(hider)
            assert fact("closed", hider) in inst.start_state().facts
            assert _distance(inst, rooms[hider], rooms[target]) >= 2
        assert len(set(hiders)) == 3


def test_room_graph_within_catalogue(bench144):
    for family in ("basic-easy", "basic-hard", "synthetic-hard"):
        for inst in bench144[family]:
            rooms = {r.id: r for r in inst.rooms}
            for a, b in inst.connections:
                assert b in rooms[a].allowed_adjacent
                assert a in rooms[b].allowed_adjacent


def test_no_shared_noun_in_same_room(bench144):
    for inst in bench144["basic-easy"]:
        rooms = _receptacle_rooms(inst)
        by_room = {}
        for e in inst.entities:
            loc = _item_location(inst, e.id)
            room = loc.args[1] if loc.predicate == "at" else rooms.get(loc.args[1])
            by_room.setdefault(room, []).append(e.noun)
        for nouns in by_room.values():
            assert len(nouns) == len(set(nouns))


def test_all_optimal_lengths_within_turn_limit(bench144):
    for instances in bench144.values():
        for inst in instances:
            assert 1 <= inst.optimal_length <= 50


def test_goal_sentence_form(bench144):
    pattern = re.compile(
        r"Your goal for this game is: Put the [\w ]+ on the [\w ]+, "
        r"the [\w ]+ on the [\w ]+ and the [\w ]+ on the [\w ]+\.")
    for family in ("basic-easy", "basic-hard"):
        for inst in bench144[family]:
            assert pattern.search(inst.prompt), inst.id
    state_pattern = re.compile(
        r"Your goal for this game is: Make the \w+ \w+, "
        r"the \w+ \w+ and the \w+ \w+\.")
    for inst in bench144["synthetic-hard"]:
        assert state_pattern.search(inst.prompt), inst.id


def test_inventory_limit_variant(bench144):
    base = bench144["basic-easy"][0]
    limited = bench144["limit-easy"][0]
    assert limited.inventory_limit == 2
    assert "You can have up to two objects in your inventory" in limited.prompt
    assert "inventory" not in base.prompt


def test_inventory_limit_zero_unsolvable(bench144):
    with pytest.raises(Unsolvable):
        solve_optimal(replace(bench144["basic-easy"][0], inventory_limit=0))


def test_limit_three_equals_unlimited(bench144):
    # planner run with and without the limit
    base = bench144["basic-easy"][1]
    limited = solve_optimal(replace(base, inventory_limit=3))
    assert limited.length == base.optimal_length


def _counting_solves(monkeypatch, fake_first=None):
    """Record the inventory limit of every solve the generator makes; the
    first solve returns `fake_first` instead when it is given."""
    limits = []

    def solve(inst, *args, **kwargs):
        limits.append(inst.inventory_limit)
        if fake_first is not None and len(limits) == 1:
            return fake_first
        return solve_optimal(inst, *args, **kwargs)

    monkeypatch.setattr(ifbench.generate, "solve_optimal", solve)
    return limits


def test_limit_families_solve_once_under_the_limit(monkeypatch):
    limits = _counting_solves(monkeypatch)
    instances = generate_family(17, "limit-hard", count=4)
    assert len(instances) == 4
    assert limits == [INVENTORY_LIMIT] * 4


def test_limited_plan_over_turn_limit_is_resampled(monkeypatch):
    first = generate_basic(Rng(5), "easy", INVENTORY_LIMIT)
    too_long = PlanResult(
        actions=(GroundedAction("look", ()),) * TURN_LIMIT
        + (GroundedAction("done", ()),),
        length=TURN_LIMIT + 1, states_expanded=0)
    limits = _counting_solves(monkeypatch, fake_first=too_long)
    inst = generate_basic(Rng(5), "easy", INVENTORY_LIMIT)
    assert limits == [INVENTORY_LIMIT] * 2
    assert inst.optimal_length <= TURN_LIMIT
    assert inst.to_json() != first.to_json()


def test_delivery_instance_builds_one_parser_and_start_state(monkeypatch):
    """The generator solves a delivery instance before it renders the prompt,
    and sets the prompt and the plan on the instance it solved, so the
    search, the prompt and a pre-exploration walk share the instance's
    cached engine, with its parser, and start state: one of each per
    instance."""
    built = {"engines": 0, "parsers": 0, "start states": 0}
    build_parser, initial_state = (ifbench.interpreter.build_parser,
                                   ifbench.instance.initial_state)
    engine_init = Engine.__init__

    def counting_parser(*args):
        built["parsers"] += 1
        return build_parser(*args)

    def counting_start(*args):
        built["start states"] += 1
        return initial_state(*args)

    def counting_engine(self, *args):
        built["engines"] += 1
        engine_init(self, *args)

    monkeypatch.setattr(ifbench.interpreter, "build_parser", counting_parser)
    monkeypatch.setattr(ifbench.instance, "initial_state", counting_start)
    monkeypatch.setattr(Engine, "__init__", counting_engine)
    for family in ("basic-easy", "preexplore-easy"):
        built.update({"engines": 0, "parsers": 0, "start states": 0})
        assert len(generate_family(17, family, 4)) == 4
        assert built == {"engines": 4, "parsers": 4, "start states": 4}, family


def test_preexploration_walks(bench144):
    for family in ("preexplore-easy", "preexplore-hard"):
        for inst in bench144[family]:
            assert 6 <= len(inst.preexploration) <= 8
            # feedback is byte-identical to an interpreter replay
            engine = Engine(inst)
            state = inst.start_state()
            walked = []
            for command, feedback in inst.preexploration:
                state, record = engine.execute(state, command)
                assert record.phase_outcome == "success"
                assert record.feedback == feedback
                walked.append(state.player_room)
            start_room = inst.start_state().player_room
            assert walked[-1] == start_room
            # the walk covers every goal-relevant room
            rooms = _receptacle_rooms(inst)
            for goal in inst.goals:
                loc = _item_location(inst, goal.fact.args[0])
                item_room = (loc.args[1] if loc.predicate == "at"
                             else rooms[loc.args[1]])
                assert item_room in set(walked) | {start_room}
                assert rooms[goal.fact.args[1]] in set(walked) | {start_room}


def test_unsolvable_samples_exhaust_the_basic_generator(monkeypatch):
    def unsolvable(inst):
        raise Unsolvable(inst.id)

    monkeypatch.setattr(ifbench.generate, "solve_optimal", unsolvable)
    with pytest.raises(ifbench.GenerationExhausted, match="^basic-easy$"):
        generate_basic(Rng(5), "easy")


def test_walks_never_found_exhaust_a_preexplore_family(monkeypatch):
    def no_walk(inst):
        raise ifbench.WalkNotFound(inst.id)

    monkeypatch.setattr(ifbench.generate, "generate_basic",
                        lambda rng, difficulty: SimpleNamespace(id="x"))
    monkeypatch.setattr(ifbench.generate, "generate_preexploration", no_walk)
    with pytest.raises(ifbench.GenerationExhausted, match="^preexplore-easy$"):
        generate_family(17, "preexplore-easy", 1)


def test_walk_step_that_fails_is_never_stored(bench144, monkeypatch):
    """A walk through a room that is not next door fails at that step; the
    generator raises `Engine.walk`'s error rather than store the failed
    step's feedback."""
    inst = bench144["basic-easy"][0]
    start = inst.start_state().player_room
    far = next(room for room in inst.world.rooms
               if room != start and room not in inst.world.exits[start])
    monkeypatch.setattr(ifbench.generate, "_covering_closed_walk",
                        lambda adj, origin, required: [far, start])
    command = f"> go {inst.engine.parser.surface_of(far)}"
    with pytest.raises(ValueError, match=re.escape(
            f"step 0 {command!r} failed in precondition-fail: ")):
        generate_preexploration(inst)


def test_generate_family_names_an_unknown_family():
    with pytest.raises(ValueError, match="^unknown family 'basic-typo'$"):
        generate_family(17, "basic-typo", 1)


def test_preexploration_padding_minimum():
    inst = micro_instance(
        rooms=["kitchen", "pantry"], connections=[("kitchen", "pantry")],
        entities=[("table", "support", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(table,kitchen)", "at(apple,kitchen)"],
        goals=["on(apple,table)"])
    walked = generate_preexploration(inst)
    assert len(walked.preexploration) == 6  # everything starts in place


def test_synthetic_easy_contents(bench144):
    for inst in bench144["synthetic-easy"]:
        lex = inst.lexicon
        assert len(lex.nouns) == 3 and len(lex.verbs) == 1
        verb, pseudo = next(iter(lex.verbs.items()))
        assert verb in ("open", "close", "take", "put")
        explanation = lex.explanations[verb]
        assert explanation.startswith(f"To {pseudo} is to ")
        assert f"In addition to common actions, you can {pseudo}." in inst.prompt
        assert explanation in inst.prompt
        for pseudo_word in list(lex.nouns.values()) + [pseudo]:
            assert WORD_RE.match(pseudo_word)


def test_synthetic_medium_contents(bench144):
    for inst in bench144["synthetic-medium"]:
        lex = inst.lexicon
        assert len(lex.nouns) == 9 and len(lex.verbs) == 3
        assert not lex.explanations
        listed = sorted(lex.verbs.values())
        pattern = re.compile(
            r"In addition to common actions, you can (\w+), (\w+) and (\w+)\.")
        match = pattern.search(inst.prompt)
        assert match and sorted(match.groups()) == listed
        # goal-relevant nouns are always replaced
        world = inst.world
        for goal in inst.goals:
            for ident in goal.fact.args:
                assert world.noun_of(ident) in lex.nouns


def test_synthetic_hard_shape(bench144):
    english = load_english_words()
    vocabulary = catalogue_vocabulary()
    for inst in bench144["synthetic-hard"]:
        assert len(inst.rooms) == 4
        assert len(inst.connections) == 3  # a line
        degree = {}
        for a, b in inst.connections:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert sorted(degree.values()) == [1, 1, 2, 2]
        assert sorted(len(g.states) for g in inst.state_groups) == [1, 2, 3]
        assert {g.kind for g in inst.goals} == {"entity-state"}
        goal_states = {g.fact.predicate for g in inst.goals}
        assert goal_states == {g.states[-1] for g in inst.state_groups}
        # every surface word in play is synthetic
        for e in inst.entities:
            assert e.noun not in english and e.noun not in vocabulary
        for noun, pseudo in inst.lexicon.nouns.items():
            assert pseudo not in english and pseudo not in vocabulary
        assert set(inst.base_verbs) == {"go", "done", "examine", "look"}


def test_synthetic_hard_never_names_an_engine_predicate(bench144,
                                                        monkeypatch):
    # a maker that offers every engine predicate before its own words,
    # unless it was told to forbid them
    class Offering(PseudowordMaker):
        def make(self):
            free = sorted(ENGINE_PREDICATES - self.forbidden - self.emitted)
            if not free:
                return super().make()
            self.emitted.add(free[0])
            return free[0]

    monkeypatch.setattr(ifbench.generate, "PseudowordMaker", Offering)
    inst = generate_family(17, "synthetic-hard", count=1)[0]  # as bench144
    states = {s for g in inst.state_groups for s in g.states}
    assert not states & ENGINE_PREDICATES
    # forbidding a word changes only the draws that would have made it
    assert inst.to_json() == bench144["synthetic-hard"][0].to_json()


def test_synthetic_hard_single_state_direct(bench144):
    inst = bench144["synthetic-hard"][0]
    single = [g for g in inst.state_groups if len(g.states) == 1][0]
    verb = next(a.verb for a in inst.extra_actions
                if a.adds[0][1] == single.states[0])
    engine = Engine(inst)
    state = inst.start_state()
    obj_room = _item_location(inst, single.entity).args[1]
    # navigate to the object, then one verb fulfils the goal
    path = _shortest_path(inst, state.player_room, obj_room)
    for room in path:
        state, record = engine.execute(state, f"> go {engine.parser.surface_of(room)}")
        assert record.phase_outcome == "success"
    noun = engine.parser.surface_of(single.entity)
    state, record = engine.execute(state, f"> {verb} {noun}")
    assert record.phase_outcome == "success"
    assert record.feedback == f"The {noun} is now {single.states[0]}."
    assert fact(single.states[0], single.entity) in state.facts


def test_synthetic_hard_ternary_requires_order(bench144):
    # second verb before the first must fail on the precondition
    for inst in bench144["synthetic-hard"][:4]:
        ternary = [g for g in inst.state_groups if len(g.states) == 3][0]
        second = next(a.verb for a in inst.extra_actions
                      if a.adds[0][1] == ternary.states[2])
        first = next(a.verb for a in inst.extra_actions
                     if a.adds[0][1] == ternary.states[1])
        engine = Engine(inst)
        state = inst.start_state()
        obj_room = _item_location(inst, ternary.entity).args[1]
        for room in _shortest_path(inst, state.player_room, obj_room):
            state, _ = engine.execute(state, f"> go {engine.parser.surface_of(room)}")
        noun = engine.parser.surface_of(ternary.entity)
        state, record = engine.execute(state, f"> {second} {noun}")
        assert record.phase_outcome == "precondition-fail"
        state, record = engine.execute(state, f"> {first} {noun}")
        assert record.phase_outcome == "success"
        state, record = engine.execute(state, f"> {second} {noun}")
        assert record.phase_outcome == "success"
        assert fact(ternary.states[2], ternary.entity) in state.facts


def _shortest_path(inst, start, goal):
    adj = {}
    for a, b in inst.connections:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for room in frontier:
            for n in sorted(adj[room]):
                if n not in parents:
                    parents[n] = room
                    nxt.append(n)
        frontier = nxt
    path = []
    cur = goal
    while cur != start:
        path.append(cur)
        cur = parents[cur]
    return list(reversed(path))


def test_lexicon_isomorphism_sample(bench144):
    base = bench144["basic-easy"][2]
    maker = PseudowordMaker(Rng(99),
                            forbidden=catalogue_vocabulary())
    lexicon = Lexicon(nouns={"plate": maker.make(), "kitchen": maker.make()},
                      verbs={"take": maker.make(), "put": maker.make()})
    mapped = apply_lexicon(base, lexicon)
    assert solve_optimal(mapped).length == base.optimal_length


def test_pseudoword_shape_and_rejection():
    english = load_english_words()
    vocabulary = catalogue_vocabulary()
    maker = PseudowordMaker(Rng(0), forbidden=vocabulary)
    words = [maker.make() for _ in range(10_000)]
    assert len(set(words)) == 10_000
    for word in words:
        assert WORD_RE.match(word), word
        assert word not in english
        assert word not in vocabulary
        assert word != "book"


def test_pseudoword_exhaustion_extends_space():
    maker = PseudowordMaker(Rng(1))
    maker.onsets, maker.nuclei, maker.codas = ["b"], ["a"], [""]
    first = maker.make()
    assert first == "baba"  # only 4..8 letter word in this tiny space
    second = maker.make()  # forces the length/syllable extension
    assert second != first and set(second) == {"b", "a"}


@pytest.mark.parametrize("family", ["limit-hard", "preexplore-easy",
                                    "synthetic-medium", "synthetic-hard"])
def test_save_load_roundtrip(tmp_path, bench144, family):
    instances = bench144[family]
    path = tmp_path / f"{family}.json"
    save_instances(instances, path, base_seed=17)
    again = load_instances(path)
    assert [i.to_json() for i in again] == [i.to_json() for i in instances]
    save_instances(again, tmp_path / "again.json", base_seed=17)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    # a reloaded instance still plays identically
    from ifbench import ScriptedAgent, run_episode
    record = run_episode(again[0], ScriptedAgent.from_plan(again[0]))
    assert record.outcome == "success"
    assert len(record.turns) == again[0].optimal_length


def _save_suite(tmp_path, bench144) -> list:
    """Save each family of `bench144` under `tmp_path`; the file paths."""
    paths = []
    for family, instances in bench144.items():
        paths.append(tmp_path / f"{family}.json")
        save_instances(instances, paths[-1], base_seed=17)
    return paths


def test_loaded_suite_shares_equal_values(tmp_path, bench144):
    suite = [i for path in _save_suite(tmp_path, bench144)
             for i in load_instances(path)]
    assert [i.to_json() for i in suite] == [
        i.to_json() for instances in bench144.values() for i in instances]
    first, seen = {}, 0
    for inst in suite:
        for value in (*inst.rooms, *inst.entities, *inst.state_groups,
                      *inst.connections, *inst.initial_facts, *inst.goals,
                      *(g.fact for g in inst.goals), *inst.optimal_plan,
                      *inst.start_state().facts):
            seen += 1
            assert first.setdefault((type(value), value), value) is value
    assert len(first) < seen / 10  # the suite does repeat itself


def test_shared_fact_is_never_a_plain_tuple(monkeypatch):
    monkeypatch.setattr(ifbench.instance, "_SHARED", {})
    plain = ifbench.instance._shared(("at", ("player", "hall")))
    shared = ifbench.instance._shared(fact("at", "player", "hall"))
    assert plain == shared and type(plain) is tuple
    assert type(shared) is ifbench.instance.Fact
    assert ifbench.instance._shared(fact("at", "player", "hall")) is shared


def test_repeated_row_is_checked_again(tmp_path, bench144):
    """A row whose id an earlier, valid row of the file shares is still
    checked in full: sharing happens after the checks."""
    path = tmp_path / "broken.json"
    save_instances(bench144["basic-easy"][:2], path, base_seed=17)
    payload = json.loads(path.read_text())
    apple = payload["instances"][0]["entities"][0]
    assert apple["id"] == "apple"
    payload["instances"][1]["entities"][0] = {**apple, "traits": [
        "container", "support"]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    assert str(err.value) == (
        f"{path}: instance 1 (basic-easy-01): field 'entities': apple: "
        "container and support are exclusive")


def test_loaded_suite_memory(tmp_path, bench144):
    """Loading the saved seed-17 suite keeps at most 2.5 MB allocated, as
    `tracemalloc` counts it in a fresh process that, as `ifbench run` does,
    only loads the files; without sharing equal values it was about
    6.5 MB."""
    paths = [str(path) for path in _save_suite(tmp_path, bench144)]
    code = (
        "import sys, tracemalloc\n"
        "import ifbench.instance\n"
        "paths = sys.argv[1:]\n"
        "# bundled data read and cached, as in a run\n"
        "ifbench.instance.load_instances(paths[0])\n"
        "ifbench.instance._SHARED = {}\n"
        "tracemalloc.start()\n"
        "suite = [i for p in paths for i in ifbench.instance.load_instances(p)]\n"
        "kept, _ = tracemalloc.get_traced_memory()\n"
        "print(len(suite), kept)\n")
    src = str(Path(ifbench.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code, *paths], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    loaded, kept = map(int, run.stdout.split())
    assert loaded == 144
    assert kept <= 2_500_000


def test_start_state_built_once(tmp_path, bench144, monkeypatch):
    # the load check builds each start state; the episode, which the
    # heuristic agent plays, then starts from it
    from ifbench import HeuristicAgent, run_episode
    import ifbench.instance
    path = tmp_path / "preexplore-hard.json"
    save_instances(bench144["preexplore-hard"][:3], path, base_seed=17)
    built = []
    initial_state = ifbench.instance.initial_state

    def counting_initial_state(*args):
        built.append(args)
        return initial_state(*args)

    monkeypatch.setattr(ifbench.instance, "initial_state", counting_initial_state)
    for inst in load_instances(path):
        assert run_episode(inst, HeuristicAgent()).outcome == "success"
    assert len(built) == 3


def _play_all(suite, agent: str) -> None:
    for inst in suite:
        run_episode(inst, ScriptedAgent.from_plan(inst) if agent == "scripted"
                    else HeuristicAgent())


def test_one_engine_per_loaded_instance(tmp_path, bench144, monkeypatch):
    # loading builds each instance's engine, and every episode after it,
    # scripted or heuristic, plays on that one
    engines = []
    engine_init = Engine.__init__

    def counting_engine(self, instance):
        engines.append(instance.id)
        engine_init(self, instance)

    paths = []
    for family in ("preexplore-hard", "synthetic-medium"):
        paths.append(tmp_path / f"{family}.json")
        save_instances(bench144[family][:4], paths[-1], base_seed=17)
    monkeypatch.setattr(Engine, "__init__", counting_engine)
    suite = [i for path in paths for i in load_instances(path)]
    for agent in ("scripted", "heuristic", "scripted"):
        _play_all(suite, agent)
    assert engines == [i.id for i in suite]


# `compile_step` calls per stage at seed 17 when each search, walk and
# episode built its own engine, with the engine's cache of compiled steps
ENGINE_PER_USE_COMPILE_STEPS = {"generate": 2083, "load": 147,
                                "heuristic": 1984, "scripted": 1644}


def test_compiled_steps_per_stage(tmp_path, monkeypatch):
    """Each loop that plays turns (a search with its replay, a walk, an
    episode) keeps the steps it compiles, and no stage compiles more steps
    than one engine per loop did; an episode leaves its engine as it was."""
    calls, stage = Counter(), ["generate"]
    compile_step = ifbench.interpreter.compile_step

    def counting(*args):
        calls[stage[0]] += 1
        return compile_step(*args)

    monkeypatch.setattr(ifbench.interpreter, "compile_step", counting)
    paths = _save_suite(tmp_path, {family: generate_family(17, family)
                                   for family in FAMILIES})
    stage[0] = "load"
    suite = [i for path in paths for i in load_instances(path)]
    engines = [(i.engine, dict(vars(i.engine)),
                copy.deepcopy(vars(i.engine.parser))) for i in suite[::16]]
    for agent in ("heuristic", "scripted"):
        stage[0] = agent
        _play_all(suite, agent)
    assert all(calls[name] <= n for name, n
               in ENGINE_PER_USE_COMPILE_STEPS.items()), calls
    for engine, attributes, parser in engines:
        assert vars(engine).keys() == attributes.keys()
        assert all(vars(engine)[name] is value
                   for name, value in attributes.items())
        assert vars(engine.parser) == parser


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generation_robust_across_seeds(seed):
    # the most constrained families must not exhaust their resampling budget
    for family in ("basic-hard", "limit-hard", "preexplore-hard",
                   "synthetic-hard"):
        instances = generate_family(seed, family, count=8)
        assert len(instances) == 8
        assert all(1 <= i.optimal_length <= 50 for i in instances)


def test_prompt_template_text(bench144):
    preamble = ("You are playing a text adventure game. I will describe what "
                "you can perceive in the game. You write the single action "
                "you want to take in the game starting with >. Only reply "
                "with an action.\nFor example:\n> open cupboard")
    closing = 'Once you have achieved your goal, write "> done" to end the game.'
    for family in ("basic-easy", "limit-hard", "synthetic-medium"):
        for inst in bench144[family][:3]:
            assert inst.prompt.startswith(preamble + "\n\n")
            assert closing in inst.prompt
            assert inst.prompt.rstrip().endswith("here.")  # start room text
    limited = bench144["limit-easy"][0]
    assert ("You can have up to two objects in your inventory at the same "
            "time.") in limited.prompt


def test_put_explanation_sentence(bench144):
    for inst in bench144["synthetic-easy"]:
        verb, pseudo = next(iter(inst.lexicon.verbs.items()))
        if verb == "put":
            assert inst.lexicon.explanations["put"] == (
                f"To {pseudo} is to physically place something somewhere.")
            break
    else:
        pytest.skip("no synthetic-easy instance replaced `put` at this seed")


def test_seed17_instance_files_match_golden_hashes(tmp_path, bench144):
    digests, schema1_digests = {}, {}
    for family, instances in bench144.items():
        path = tmp_path / f"{family}.json"
        save_instances(instances, path, base_seed=17)
        digests[family] = hashlib.sha256(path.read_bytes()).hexdigest()
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema_version"] = 1
        for row in payload["instances"]:
            del row["optimal_plan"]
        schema1 = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        schema1_digests[family] = hashlib.sha256(
            schema1.encode("utf-8")).hexdigest()
    assert digests == SEED17_SHA256
    assert schema1_digests == SEED17_SCHEMA1_SHA256


def test_instance_schema_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "instances": []}))
    with pytest.raises(ValueError):
        load_instances(path)
    path.write_text(json.dumps({"schema_version": 1, "instances": []}))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    message = str(err.value)
    assert str(path) in message
    assert "schema version 1, expected 2" in message
    assert "ifbench generate" in message


@pytest.mark.parametrize("field, value, named", [
    ("optimal_plan", lambda row: None,
     "optimal_plan is missing, empty or does not end in done"),
    ("optimal_plan", lambda row: [],
     "optimal_plan is missing, empty or does not end in done"),
    ("optimal_plan", lambda row: row["optimal_plan"][:-1],
     "optimal_plan is missing, empty or does not end in done"),
    ("optimal_plan", lambda row: [["fly", []]] + row["optimal_plan"][1:],
     "optimal_plan step 0: GroundedAction(action='fly', bindings=()) renders "
     "as 'fly', which fails: unknown-verb: fly"),
    ("optimal_plan",
     lambda row: [["go", [["room", "spoon"]]]] + row["optimal_plan"][1:],
     "optimal_plan step 0: GroundedAction(action='go', bindings=(('room', "
     "'spoon'),)) renders as 'go spoon', which fails: unknown-entity: spoon"),
    ("optimal_plan",
     lambda row: [["go", [["to", "hallway"]]]] + row["optimal_plan"][1:],
     "optimal_plan step 0: GroundedAction(action='go', bindings=(('to', "
     "'hallway'),)) renders as 'go', which fails: malformed: go"),
    ("optimal_length", lambda row: row["optimal_length"] + 1,
     "optimal_plan has 11 steps, optimal_length is 12"),
    ("optimal_plan", lambda row: 5, "'int' object is not iterable"),
    ("optimal_plan", lambda row: [["take", []]] + row["optimal_plan"][1:],
     "optimal_plan step 0: GroundedAction(action='take', bindings=()) "
     "renders as 'take', which fails: malformed: take"),
    ("optimal_plan", lambda row: [
        [row["optimal_plan"][0][0], row["optimal_plan"][0][1] * 2]]
        + row["optimal_plan"][1:],
     "optimal_plan step 0: GroundedAction(action='go', bindings=(('room', "
     "'hallway'), ('room', 'hallway'))) renders as 'go hallway', which reads "
     "back as GroundedAction(action='go', bindings=(('room', 'hallway'),))"),
    ("optimal_plan", lambda row: [["go", [["room"]]]] + row["optimal_plan"][1:],
     "optimal_plan step 0 is not a verb with [param, id] pairs of strings: "
     "GroundedAction(action='go', bindings=(('room',),))"),
    ("optimal_plan",
     lambda row: [["go", [["room", "hallway", "x"]]]] + row["optimal_plan"][1:],
     "optimal_plan step 0 is not a verb with [param, id] pairs of strings"),
    ("optimal_plan",
     lambda row: [["go", [["room", ["hallway"]]]]] + row["optimal_plan"][1:],
     "optimal_plan step 0 is not a verb with [param, id] pairs of strings"),
    ("optimal_plan", lambda row: [[["go"], []]] + row["optimal_plan"][1:],
     "optimal_plan step 0 is not a verb with [param, id] pairs of strings"),
    ("optimal_plan", lambda row: [["go", "room"]] + row["optimal_plan"][1:],
     "field 'optimal_plan': optimal_plan step 0 is not a verb with "
     "[param, id] pairs of strings: ['go', 'room']"),
    ("optimal_plan",
     lambda row: row["optimal_plan"][:1] + [["go", ["room", "hallway"]]]
     + row["optimal_plan"][2:],
     "field 'optimal_plan': optimal_plan step 1 is not a verb with "
     "[param, id] pairs of strings: ['go', ['room', 'hallway']]"),
    ("optimal_plan",
     lambda row: row["optimal_plan"][:1] + [["take", [["item", "bed"]]]]
     + row["optimal_plan"][2:],
     "optimal_plan step 1: GroundedAction(action='take', bindings=(('item', "
     "'bed'),)) renders as 'take bed', which fails: trait-mismatch: bed"),
    ("optimal_plan", lambda row: row["optimal_plan"][:-1] + [["done", {}]],
     "optimal_plan step 10 is not a verb with [param, id] pairs of strings: "
     "['done', {}]"),
    # another entity written as the first object the plan takes
    ("entities", lambda row: [{**e, "noun": "apple"} if e["id"] == "banana"
                              else e for e in row["entities"]],
     "optimal_plan step 3: GroundedAction(action='take', bindings=(('item', "
     "'apple'),)) renders as 'take apple', which fails: ambiguous: apple"),
    # bindings are read back in any order
    ("optimal_plan", lambda row: row["optimal_plan"][:6]
     + [["put", row["optimal_plan"][6][1][::-1]]] + row["optimal_plan"][7:],
     None),
], ids=["null", "empty", "no-done", "unknown-verb", "unknown-id", "unknown-parameter",
        "length-mismatch", "not-a-list", "unbound-parameter", "bound-twice",
        "binding-one-element", "binding-three-elements", "binding-not-strings",
        "verb-not-a-string", "bindings-a-string", "binding-not-a-list",
        "binding-wrong-trait", "bindings-a-map", "shared-noun",
        "put-bindings-reversed"])
def test_invalid_plan_names_file_instance_and_field(tmp_path, bench144, field,
                                                    value, named):
    """A plan that `Parser.render` cannot read back fails to load, naming
    the file, the instance and the field; `named` None is a plan that loads."""
    path = tmp_path / "broken.json"
    save_instances(bench144["basic-easy"][:2], path, base_seed=17)
    payload = json.loads(path.read_text())
    row = payload["instances"][1]
    row[field] = value(row)
    path.write_text(json.dumps(payload))
    if named is None:
        assert load_instances(path)[1].to_json() == row
        return
    with pytest.raises(ValueError) as err:
        load_instances(path)
    message = str(err.value)
    assert str(path) in message
    assert "instance 1 (basic-easy-01)" in message
    assert named in message


def test_a_plan_that_binds_the_true_source_loads_and_plays(tmp_path, bench144):
    """A take step may bind its optional source: the text names it after
    ``from``, so the stored plan loads and its replay wins."""
    from ifbench import ScriptedAgent, run_episode
    path = tmp_path / "sourced.json"
    save_instances(bench144["basic-easy"][:2], path, base_seed=17)
    payload = json.loads(path.read_text())
    plan = payload["instances"][1]["optimal_plan"]
    assert plan[3] == ["take", [["item", "apple"]]]
    plan[3][1].append(["source", "counter"])  # on(apple,counter)
    path.write_text(json.dumps(payload))
    inst = load_instances(path)[1]
    assert inst.optimal_plan[3].get("source") == "counter"
    agent = ScriptedAgent.from_plan(inst)
    assert run_episode(inst, agent).outcome == "success"


def _set_field(field, value):
    """Set a field of the second instance to `value(row)`."""
    def mutate(payload):
        row = payload["instances"][1]
        row[field] = value(row)
        return payload
    return mutate


# an instance's own action that loads: a cupboard-opening verb
_ZAP = {"verb": "zap", "params": [{"name": "item", "trait": "openable"}],
        "grammar": "zap <item>",
        "flags": {"epistemic": False, "pragmatic": True, "replaceable": False},
        "preconditions": [{"check": "has_state", "param": "item",
                           "state": "closed", "fail": "no_effect"}],
        "effects": {"removes": [["fact", "closed", "item"]],
                    "adds": [["fact", "open", "item"]]},
        "feedback": {"success": "Zap.", "no_effect": "Nothing happens."}}


def _set_action(field, value):
    """Give the second instance `_ZAP` as its own action, with `field` set
    to `value`."""
    return _set_field("extra_actions", lambda row: [{**_ZAP, field: value}])


def _state_named(entity, state, before=()):
    """Give `entity` of the second instance a state group of the states
    `before` and then `state`, a reserved predicate or one of `before`; and
    the message that rejects it."""
    return (_set_field("state_groups", lambda row: row["state_groups"] + [
        {"entity": entity, "states": [*before, state], "initial": None}]),
        f"instance 1 (basic-easy-01): field 'state_groups': state {state!r} "
        f"of {entity!r} is a reserved predicate or listed twice")


def test_extra_action_row_loads(tmp_path, bench144):
    # its verb is a new word, which the prompt tells after the preamble
    path = tmp_path / "zap.json"
    save_instances(bench144["basic-easy"][:2], path, base_seed=17)
    payload = _set_action("verb", "zap")(json.loads(path.read_text()))
    row = payload["instances"][1]
    row["prompt"] = row["prompt"].replace(
        "\n\nYour goal", "\n\nIn addition to common actions, you can zap."
        "\n\nYour goal")
    path.write_text(json.dumps(payload))
    assert [a.to_json() for a in load_instances(path)[1].extra_actions] == [
        {**_ZAP, "params": [{"name": "item", "trait": "openable",
                             "optional": False}]}]


def test_generated_actions_are_the_rows_they_save(bench144):
    # the generator reads its own verbs' rows as loading does
    for inst in bench144["synthetic-hard"]:
        states = [s for g in inst.state_groups for s in g.states]
        assert inst.extra_actions
        for action in inst.extra_actions:
            assert action == action_from_json(action.to_json(), states)


@pytest.mark.parametrize("mutate, named", [
    (None, "not valid JSON ("),
    (lambda payload: [payload], "the top level is not a JSON object"),
    (lambda payload: {**payload, "instances": [payload["instances"][0], 5]},
     "instance 1 is not a JSON object"),
    (_set_field("initial_facts", lambda row: row["initial_facts"] + [5]),
     "instance 1 (basic-easy-01): field 'initial_facts': not a fact string: 5"),
    (_set_field("goals", lambda row: [{"kind": "placement", "fact": 5}]),
     "instance 1 (basic-easy-01): field 'goals': not a fact string: 5"),
    (_set_field("lexicon", lambda row: "nouns"),
     "instance 1 (basic-easy-01): field 'lexicon': "),
    (_set_field("entities", lambda row: [
        {**row["entities"][0], "traits": "takeable"}] + row["entities"][1:]),
     "instance 1 (basic-easy-01): field 'entities': "
     "'takeable' is not a list of strings"),
    (_set_field("inventory_limit", lambda row: True),
     "instance 1 (basic-easy-01): field 'inventory_limit': "
     "True is not null or a positive integer"),
    (_set_field("inventory_limit", lambda row: "2"),
     "instance 1 (basic-easy-01): field 'inventory_limit': "
     "'2' is not null or a positive integer"),
    (_set_field("inventory_limit", lambda row: 0),
     "instance 1 (basic-easy-01): field 'inventory_limit': "
     "0 is not null or a positive integer"),
    (_set_field("id", lambda row: "../../../escaped"),
     "instance 1 (../../../escaped): field 'id': '../../../escaped' is not "
     "letters, digits and _.- that do not start with ."),
    (_set_field("id", lambda row: ".hidden"), "field 'id': '.hidden' is not"),
    (_set_field("goals", lambda row: [{**row["goals"][0], "kind": "x"}]),
     "instance 1 (basic-easy-01): field 'goals': goal kind 'x' is not one "
     "of placement, entity-state"),
    (_set_field("goals", lambda row: []),
     "instance 1 (basic-easy-01): field 'goals': no goals"),
    (_set_field("entities", lambda row: [
        {**row["entities"][0], "noun": None}] + row["entities"][1:]),
     "instance 1 (basic-easy-01): field 'entities': apple: noun None is not "
     "a non-empty string"),
    (_set_field("entities", lambda row: [
        {**row["entities"][0], "noun": ""}] + row["entities"][1:]),
     "instance 1 (basic-easy-01): field 'entities': apple: noun '' is not "
     "a non-empty string"),
    (_set_field("rooms", lambda row: [
        {**row["rooms"][0], "noun": ["x"]}] + row["rooms"][1:]),
     "instance 1 (basic-easy-01): field 'rooms': bedroom: noun ['x'] is not "
     "a non-empty string"),
    (_set_field("state_groups", lambda row: [
        {**row["state_groups"][0], "initial": "ajar"}] + row["state_groups"][1:]),
     "instance 1 (basic-easy-01): field 'state_groups': cupboard: initial "
     "state 'ajar' is not one of open, closed"),
    (_set_field("family", lambda row: 0),
     "instance 1 (basic-easy-01): field 'family': 0 is not a string"),
    (_set_field("prompt", lambda row: 5),
     "instance 1 (basic-easy-01): field 'prompt': 5 is not a string"),
    (_set_field("lexicon", lambda row: {"nouns": {"apple": None}}),
     "instance 1 (basic-easy-01): field 'lexicon': nouns: 'apple' maps to "
     "None, not a non-empty string"),
    (_set_field("lexicon", lambda row: {"verbs": {"open": 0}}),
     "field 'lexicon': verbs: 'open' maps to 0, not a non-empty string"),
    (_set_field("lexicon", lambda row: {"adjectives": {"open": True}}),
     "field 'lexicon': adjectives: 'open' maps to True, not a non-empty "
     "string"),
    (_set_field("lexicon", lambda row: {"explanations": {"open": ""}}),
     "field 'lexicon': explanations: 'open' maps to '', not a non-empty "
     "string"),
    (_set_field("seed_path", lambda row: "x"),
     "instance 1 (basic-easy-01): field 'seed_path': 'x' is not a list of "
     "non-negative integers"),
    (_set_field("seed_path", lambda row: [17, -1]),
     "field 'seed_path': [17, -1] is not a list of non-negative integers"),
    (_set_action("effects", {"adds": [["x", "item"]]}),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "effects: {'adds': [['x', 'item']]} is not removes and adds of effect "
     "templates that resolve to valid facts"),
    (_set_action("effects", {"adds": [["fact", "connects", "item", "x"]]}),
     "field 'extra_actions': action 'zap', effects: "),
    (_set_action("effects", {"adds": [["fact", "ajar", "item"]]}),
     "field 'extra_actions': action 'zap', effects: "),
    (_set_action("feedback", {"success": 5}),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "feedback: {'success': 5} is not a map of strings to strings"),
    (_set_action("grammar", "zip <item>"),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "grammar: 'zip <item>' is not a snippet that starts with the verb and "
     "names only its parameters"),
    (_set_action("grammar", None),
     "field 'extra_actions': action 'zap', grammar: None is not a snippet"),
    (_set_action("params", [{"name": "item", "trait": "shiny"}]),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "params: [{'name': 'item', 'trait': 'shiny'}] is not a list of "
     "parameters, each a name and a known trait"),
    (_set_action("params", [["item", "thing"]]),
     "field 'extra_actions': action 'zap', params: [['item', 'thing']] is not"),
    (_set_action("preconditions", ""),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "preconditions: '' is not a list"),
    (_set_action("preconditions", {}),
     "field 'extra_actions': action 'zap', preconditions: {} is not a list"),
    (_set_action("flags", {**_ZAP["flags"], "epistemic": "x"}),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "flags: {'epistemic': 'x', 'pragmatic': True, 'replaceable': False} is "
     "not a map of epistemic, pragmatic and replaceable to bools"),
    (_set_action("effects", {**_ZAP["effects"], "adds": [["fact", "open", "x"]]}),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "effects: {'removes': [['fact', 'closed', 'item']], 'adds': [['fact', "
     "'open', 'x']]} is not removes and adds of effect templates that "
     "resolve to valid facts"),
    (_set_field("preexploration", lambda row: [["x"]]),
     "instance 1 (basic-easy-01): field 'preexploration': ['x'] is not a "
     "[command, feedback] pair of strings"),
    (_set_field("state_groups", lambda row: row["state_groups"][1:]),
     "instance 1 (basic-easy-01): cupboard: a container needs a state group "
     "of open and closed with an initial state"),
    (_set_field("state_groups", lambda row: [
        {**row["state_groups"][0], "initial": None}] + row["state_groups"][1:]),
     "instance 1 (basic-easy-01): cupboard: a container needs a state group"),
    (_set_field("entities", lambda row: row["entities"] + [
        {**row["entities"][0], "noun": "pear"}]),
     "instance 1 (basic-easy-01): field 'entities': id 'apple' names two "
     "entities"),
    (_set_field("rooms", lambda row: row["rooms"] + [
        {**row["rooms"][2], "noun": "attic"}]),
     "instance 1 (basic-easy-01): field 'rooms': id 'hallway' names two rooms"),
    (_set_field("entities", lambda row: row["entities"] + [
        {**row["entities"][2], "id": "hallway"}]),
     "instance 1 (basic-easy-01): field 'entities': id 'hallway' names a room "
     "and an entity"),
    (_set_field("rooms", lambda row: row["rooms"] + [
        {**row["rooms"][2], "id": "player"}]),
     "instance 1 (basic-easy-01): field 'rooms': id 'player' is reserved for "
     "the player"),
    (_set_field("entities", lambda row: row["entities"] + [
        {**row["entities"][0], "id": "inventory"}]),
     "instance 1 (basic-easy-01): field 'entities': id 'inventory' is "
     "reserved for the inventory"),
    (_set_field("state_groups", lambda row: row["state_groups"] + [
        {**row["state_groups"][0], "initial": "closed"}]),
     "instance 1 (basic-easy-01): field 'state_groups': entity 'cupboard' has "
     "two state groups"),
    (_set_field("state_groups", lambda row: row["state_groups"] + [
        {"entity": "attic", "states": ["dusty"], "initial": None}]),
     "instance 1 (basic-easy-01): field 'state_groups': 'attic' has a state "
     "group but is no entity"),
    (_set_field("base_verbs", lambda row: row["base_verbs"] + ["open"]),
     "instance 1 (basic-easy-01): field 'base_verbs': verb 'open' is listed "
     "twice"),
    (_set_field("base_verbs", lambda row: row["base_verbs"] + ["fly"]),
     "instance 1 (basic-easy-01): field 'base_verbs': 'fly' is not a bundled "
     "verb"),
    (_set_field("extra_actions", lambda row: [_ZAP, _ZAP]),
     "instance 1 (basic-easy-01): field 'extra_actions': verb 'zap' is a base "
     "verb or an earlier action's"),
    (_set_field("extra_actions", lambda row: [
        {**_ZAP, "verb": "open", "grammar": "open <item>"}]),
     "instance 1 (basic-easy-01): field 'extra_actions': verb 'open' is a base "
     "verb or an earlier action's"),
    (_set_field("lexicon", lambda row: {"verbs": {"open": "take"}}),
     "instance 1 (basic-easy-01): field 'lexicon': verbs: two verbs are "
     "written 'take'"),
    (_set_field("connections", lambda row: row["connections"] + [
        ["hallway", "hallway"]]),
     "instance 1 (basic-easy-01): field 'connections': ['hallway', 'hallway'] "
     "is not a pair of two different rooms"),
    (_set_field("connections", lambda row: row["connections"] + [
        ["hallway", "pantry", "kitchen"]]),
     "field 'connections': ['hallway', 'pantry', 'kitchen'] is not a pair"),
    (_set_action("preconditions", []),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "effects: adds open(item), but no precondition rules out that item holds "
     "it already (not_has_state open, or has_state of a state the action "
     "removes)"),
    (_set_action("effects", {"removes": [], "adds": [["fact", "open", "item"]]}),
     "field 'extra_actions': action 'zap', effects: adds open(item), but no "
     "precondition rules out"),
    (_set_field("connections", lambda row: row["connections"] + [
        ["hallway", "attic"]]),
     "instance 1 (basic-easy-01): connects(hallway,attic): unknown room"),
    (_set_field("connections", lambda row: [
        c for c in row["connections"] if "broom_closet" not in c]),
     "instance 1 (basic-easy-01): room graph is not connected"),
    _state_named("apple", "at"), _state_named("apple", "on"),
    _state_named("apple", "in"), _state_named("apple", "connects"),
    _state_named("apple", "open"), _state_named("table", "closed"),
    _state_named("apple", "ripe", before=["ripe"]),
    (lambda payload: {k: v for k, v in payload.items() if k != "instances"},
     "field 'instances' is missing or not a list"),
    (_set_action("grammar", "zap up <item>"),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "grammar: 'zap up <item>' is not a snippet"),
    (_set_action("verb", 5), "is not an action with a string verb"),
    # the prompt must be the engine's; basic-easy-01's parts are the
    # preamble, the goal line, the closing and the start room's description
    (_set_field("prompt", lambda row: row["prompt"].replace(
        "Put the apple", "Put the zebra")),
     "instance 1 (basic-easy-01): field 'prompt': part 1 is 'Your goal for "
     "this game is: Put the zebra on the table, the orange on the couch and "
     "the potted plant on the couch.', the engine's is 'Your goal for this "
     "game is: Put the apple on the table, "),
    (lambda payload: _set_field("prompt", lambda row: payload["instances"][0][
        "prompt"])(payload),
     "instance 1 (basic-easy-01): field 'prompt': part 1 is 'Your goal for "
     "this game is: Put the plate on the shelf, the apple on the chair and "
     "the banana on the couch.', the engine's is 'Your goal for this game "
     "is: Put the apple on the table, "),
    (_set_field("prompt", lambda row: "x"),
     "instance 1 (basic-easy-01): field 'prompt': part 0 is 'x', the "
     "engine's is 'You are playing a text adventure game. "),
    (_set_field("prompt", lambda row: ""),
     "instance 1 (basic-easy-01): field 'prompt': part 0 is '', the "
     "engine's is 'You are playing a text adventure game. "),
    (_set_field("prompt", lambda row: row["prompt"].replace(
        "a broom and a mop", "a broom")),
     "instance 1 (basic-easy-01): field 'prompt': part 3 is 'You are in a "
     "broom closet. There are a broom here. There is a passage to a "
     "hallway here.', the engine's is 'You are in a broom closet. There are a broom "
     "and a mop here. There is a passage to a hallway here.'"),
    (_set_action("effects", {"adds": [["location_of", "item"]]}),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "effects: {'adds': [['location_of', 'item']]} is not removes and adds "
     "of effect templates that resolve to valid facts"),
    # feedback a turn could not render: `zap` binds its item, and on
    # success also the room and what the item holds
    (_set_action("feedback", {"success": "Zap {bogus}.",
                              "no_effect": "Nothing happens."}),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "feedback: {'success': 'Zap {bogus}.', 'no_effect': 'Nothing happens.'} "
     "is not a map whose 'success' template names only ['contents', 'item', "
     "'room_description']"),
    (_set_action("feedback", {"no_effect": "Nothing happens."}),
     "instance 1 (basic-easy-01): field 'extra_actions': action 'zap', "
     "feedback: {'no_effect': 'Nothing happens.'} is not a map of strings to "
     "strings with a success template"),
    (_set_action("feedback", {"success": "Zap {.", "no_effect": "No."}),
     "field 'extra_actions': action 'zap', feedback: {'success': 'Zap {.', "
     "'no_effect': 'No.'} is not a map whose 'success' template names only "),
    (_set_action("feedback", {"success": "Zap {limit}.", "no_effect": "No."}),
     "field 'extra_actions': action 'zap', feedback: {'success': 'Zap "
     "{limit}.', 'no_effect': 'No.'} is not a map whose 'success' template "),
    (_set_action("feedback", {"success": "Zap.", "no_effect": "No {limit}."}),
     "field 'extra_actions': action 'zap', feedback: {'success': 'Zap.', "
     "'no_effect': 'No {limit}.'} is not a map whose 'no_effect' template "
     "names only ['item']"),
    (_set_action("feedback", {"success": "{entity_description}",
                              "no_effect": "No."}),
     "field 'extra_actions': action 'zap', feedback: {'success': "
     "'{entity_description}', 'no_effect': 'No.'} is not a map whose "
     "'success' template names only ['contents', 'item', 'room_description']"),
], ids=["invalid-json", "top-level-list", "row-not-object", "fact-not-string",
        "goal-not-string", "lexicon-not-object", "traits-string", "limit-bool",
        "limit-string", "limit-zero", "id-path", "id-dot-first", "goal-kind",
        "goals-empty", "entity-noun-null", "entity-noun-empty",
        "room-noun-list", "initial-not-a-state", "family-not-string",
        "prompt-not-string", "lexicon-noun-null", "lexicon-verb-zero",
        "lexicon-adjective-true", "lexicon-explanation-empty",
        "seed-path-string", "seed-path-negative", "effect-unknown-kind",
        "effect-connects", "effect-unknown-predicate", "feedback-not-string",
        "grammar-other-verb", "grammar-null", "params-unknown-trait",
        "params-pair-list", "preconditions-empty-string",
        "preconditions-empty-map", "flags-not-bool", "effect-unknown-argument",
        "preexploration-not-a-pair", "container-without-state-group",
        "container-without-initial-state", "entity-id-twice", "room-id-twice",
        "room-and-entity-id", "room-id-player", "entity-id-inventory",
        "state-groups-twice", "state-group-no-entity",
        "base-verb-twice", "base-verb-unknown", "extra-verb-twice",
        "extra-verb-is-base", "lexicon-verb-collision", "connection-self-loop",
        "connection-three-rooms", "state-add-unguarded",
        "state-add-guard-not-removed", "connection-unknown-room",
        "room-graph-disconnected", "state-named-at", "state-named-on",
        "state-named-in", "state-named-connects", "state-open-non-container",
        "state-closed-non-container", "state-listed-twice", "no-instances",
        "grammar-bare-word", "extra-verb-not-a-string", "prompt-goal-zebra",
        "prompt-of-instance-0", "prompt-x", "prompt-empty",
        "prompt-start-description", "effect-location-added",
        "feedback-unbound-name", "feedback-no-success", "feedback-lone-brace",
        "feedback-limit-on-success", "feedback-limit-on-other-failure",
        "feedback-examine-unperceived"])
def test_malformed_file_names_file_instance_and_field(tmp_path, bench144,
                                                      mutate, named):
    """Malformed JSON, or a value of the wrong JSON type, is a ValueError
    that names the file and, below the top level, the instance and the
    field; a string where a list of strings belongs is not split."""
    path = tmp_path / "broken.json"
    save_instances(bench144["basic-easy"][:2], path, base_seed=17)
    text = path.read_text()
    path.write_text(text[:-10] if mutate is None
                    else json.dumps(mutate(json.loads(text))))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ")
    assert named in message


def test_a_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: not valid JSON ('utf-8' codec can't decode byte 0xff")):
        load_instances(path)


@pytest.mark.parametrize("index, key, value, fault", [
    (0, "check", "acessible_here", "not a known check"),
    (0, "param", "itme", "param 'itme' is not a parameter of the action"),
    (0, "fail", "nope", "failure kind 'nope' has no feedback template"),
    (2, "state", None, "state is not a string"),
], ids=["unknown-check", "unknown-param", "fail-without-template",
        "state-missing"])
def test_bad_precondition_names_file_instance_verb_and_check(
        tmp_path, bench144, index, key, value, fault):
    """An instance's own action whose precondition no turn could decide or
    report is rejected at load, naming the file, the instance, the field,
    the verb and the check."""
    path = tmp_path / "broken.json"
    save_instances(bench144["synthetic-hard"][:2], path, base_seed=17)
    payload = json.loads(path.read_text())
    action = payload["instances"][1]["extra_actions"][0]
    cond = action["preconditions"][index]
    cond[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    assert str(err.value) == (
        f"{path}: instance 1 (synthetic-hard-01): field 'extra_actions': "
        f"action {action['verb']!r}, precondition check {cond['check']!r}: "
        f"{fault}")


def test_malformed_instance_names_file_instance_and_field(tmp_path, bench144):
    path = tmp_path / "broken.json"
    save_instances(bench144["basic-easy"][:2], path, base_seed=17)
    payload = json.loads(path.read_text())
    del payload["instances"][1]["family"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    message = str(err.value)
    assert str(path) in message
    assert "instance 1 (basic-easy-01)" in message
    assert "'family'" in message


@pytest.mark.parametrize("replaced, added, named", [
    ("on(plate,counter)", "on(plate", "'on(plate'"),
    ("on(plate,counter)", "at(plate)", "at(plate) must have 2 args"),
    ("on(plate,counter)", "in(plate)", "in(plate) must have 2 args"),
    (None, "at(plate,kitchen)", "plate has 2 location facts"),
    ("at(table,kitchen)", "on(table,counter)",
     "on(table,counter): table is not takeable"),
    (None, "in(player,inventory)",
     "in(player,inventory): player is not takeable"),
], ids=["malformed", "missing-argument", "missing-argument-in",
        "placed-twice", "fixture-on-support", "player-in-inventory"])
def test_invalid_start_state_names_file_instance_and_fact(tmp_path, replaced,
                                                          added, named):
    path = tmp_path / "broken.json"
    inst = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("counter", "support", ["kitchen"]),
                  ("table", "support", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "at(table,kitchen)", "on(plate,counter)"],
        goals=["in(plate,inventory)"])
    inst = replace(inst, optimal_plan=solve_optimal(inst).actions)
    save_instances([replace(inst, id=f"micro-{i}") for i in range(2)], path)
    payload = json.loads(path.read_text())
    facts = payload["instances"][1]["initial_facts"]
    if replaced:
        facts.remove(replaced)
    facts.append(added)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    message = str(err.value)
    assert str(path) in message
    assert "instance 1 (micro-1)" in message
    assert named in message


def test_passage_in_initial_facts_names_file_instance_and_fact(tmp_path):
    """A `connects` fact in `initial_facts`, even with its mirror, is
    rejected at load: the room graph comes from `connections` alone, so a
    passage there would be walkable but drawn nowhere."""
    path = tmp_path / "broken.json"
    inst = micro_instance(
        rooms=["kitchen", "pantry", "bedroom"],
        connections=[("kitchen", "pantry"), ("pantry", "bedroom")],
        entities=[("counter", "support", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "on(plate,counter)"],
        goals=["in(plate,inventory)"])
    inst = replace(inst, optimal_plan=solve_optimal(inst).actions)
    save_instances([replace(inst, id=f"micro-{i}") for i in range(2)], path)
    payload = json.loads(path.read_text())
    payload["instances"][1]["initial_facts"] += [
        "connects(kitchen,bedroom)", "connects(bedroom,kitchen)"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_instances(path)
    assert str(err.value) == (f"{path}: instance 1 (micro-1): "
                              "unknown predicate in connects(kitchen,bedroom)")


def test_room_graph_is_the_worlds_alone(bench144, oracle_records,
                                        heuristic_records):
    """No state of the seed-17 suite holds a `connects` fact: no start
    state, and no state of a scripted or heuristic episode, pre-exploration
    included. The passages each DOT graph draws are the world's exits."""
    for records in (oracle_records.records, heuristic_records):
        for inst, episode in records.values():
            engine = Engine(inst)
            state = inst.start_state()
            states = [state]
            for command, _ in inst.preexploration or ():
                state, _ = engine.execute(state, command)
                states.append(state)
            for turn in episode.turns:
                state = apply_delta(inst.world, state, turn.removes, turn.adds)
                states.append(state)
            assert state == episode.state, inst.id
            assert not any(f.predicate == "connects"
                           for s in states for f in s.facts), inst.id
    for instances in bench144.values():
        for inst in instances:
            drawn = re.findall(r'"(\w+)" -> "(\w+)" \[dir=both\]',
                               instance_to_dot(inst))
            assert {(a, b) for a, b in drawn} | {(b, a) for a, b in drawn} == {
                (room, other) for room, others in inst.world.exits.items()
                for other in others}, inst.id
            assert len(drawn) == len(inst.connections), inst.id


def test_dot_export(bench144):
    inst = bench144["basic-easy"][0]
    dot = instance_to_dot(inst)
    assert dot.startswith(f'digraph "{inst.id}"')
    assert "shape=house" in dot
    assert "[dir=both]" in dot
    for goal in inst.goals:
        item, target = goal.fact.args
        assert f'"{item}" -> "{target}" [style=dashed' in dot
    hard = bench144["synthetic-hard"][0]
    assert "style=dashed" in instance_to_dot(hard)
