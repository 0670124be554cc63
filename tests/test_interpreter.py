import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ifbench import (Engine, Episode, HeuristicAgent, MissingBinding,
                     ScriptedAgent, WorldState, episode_summary, fact,
                     render_feedback, run_episode, solve_optimal)
from ifbench.interpreter import PHASES
from ifbench.world import (INVENTORY, apply_delta, state_facts_of,
                           validate_state, visible_facts)
from oracles import (micro_corpus, micro_instance, reference_entity_description,
                     reference_room_description, reference_solve,
                     reference_state_facts, reference_visible, with_walk)


def kitchen_instance(**kwargs):
    return micro_instance(
        rooms=["kitchen", "pantry", "bedroom"],
        connections=[("kitchen", "pantry"), ("pantry", "bedroom")],
        entities=[("counter", "support", ["kitchen"]),
                  ("cupboard", "container", ["kitchen"]),
                  ("table", "support", ["pantry"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("sandwich", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "at(cupboard,kitchen)", "closed(cupboard)", "at(table,pantry)",
               "on(plate,counter)", "in(sandwich,cupboard)"],
        goals=["on(plate,table)", "on(sandwich,table)"],
        **kwargs)


# frozen golden transcript for the fixture above (first implementation output)
GOLDEN_TURNS = [
    ("> look", "success",
     "You are in a kitchen. There are a counter and a cupboard here. "
     "On the counter you see a plate. The cupboard is closed. "
     "There is a passage to a pantry here."),
    ("> open cupboard", "success",
     "You open the cupboard. In it you see a sandwich."),
    ("> take the sandwich", "success", "You take the sandwich."),
    ("> take plate", "success", "You take the plate."),
    ("> go pantry", "success",
     "You are in a pantry. There is a table here. "
     "There are passages to a bedroom and a kitchen here."),
    ("> put plate on table", "success", "You put the plate on the table."),
    ("> examine table", "success", "On the table you see a plate."),
    ("> examine inventory", "success", "In your inventory you have a sandwich."),
    ("> go bedroom", "success",
     "You are in a bedroom. There is a passage to a pantry here."),
    ("> examine sandwich", "success", "The sandwich is in your inventory."),
    ("> close cupboard", "precondition-fail", "You don't see a cupboard here."),
    ("> go kitchen", "precondition-fail",
     "There is no passage to the kitchen from here."),
]

GOLDEN_FAILURES = [
    # examining a closed container must not leak its contents
    ("> examine cupboard", "success", "The cupboard is closed."),
    (">", "parse-fail", "I don't understand that."),
    ("> fly to moon", "parse-fail", "I don't know how to fly."),
    ("> take", "parse-fail", "I don't understand that."),
    ("> take the spoon", "resolution-fail", "I don't know what a spoon is."),
    ("> open table", "resolution-fail", "You can't open the table."),
    ("> put sandwich in table", "resolution-fail",
     "You can't put something in the table."),
    ("> go bedroom", "precondition-fail",
     "There is no passage to the bedroom from here."),
    ("> take sandwich", "precondition-fail", "You don't see a sandwich here."),
    ("> put plate on table", "precondition-fail", "You don't have the plate."),
    ("> examine sandwich", "precondition-fail",
     "You don't see a sandwich here."),
    ("> take plate from table", "precondition-fail", "The plate is not there."),
    ("> take plate from counter", "success", "You take the plate."),
]


def test_golden_transcript():
    inst = kitchen_instance()
    engine = Engine(inst)
    state = inst.start_state()
    for raw, phase, feedback in GOLDEN_TURNS:
        state, record = engine.execute(state, raw)
        assert record.phase_outcome == phase, raw
        assert record.feedback == feedback, raw


def test_golden_failures_fresh_state():
    inst = kitchen_instance()
    engine = Engine(inst)
    for raw, phase, feedback in GOLDEN_FAILURES:
        _, record = engine.execute(inst.start_state(), raw)
        assert record.phase_outcome == phase, raw
        assert record.feedback == feedback, raw


def _recorded_walks(monkeypatch) -> list[WorldState]:
    """Each state whose perceivable map is worked out, once per walk."""
    walks = []
    perceive = WorldState._perceive

    def counting_perceive(state):
        walks.append(state)
        return perceive(state)

    monkeypatch.setattr(WorldState, "_perceive", counting_perceive)
    return walks


def test_failed_turn_walks_visibility_once(monkeypatch):
    # the precondition's read of the state also gives the revealed facts
    walks = _recorded_walks(monkeypatch)
    inst = kitchen_instance()
    _, record = Engine(inst).execute(inst.start_state(), "> take sandwich")
    assert record.phase_outcome == "precondition-fail"
    assert len(walks) == 1


def test_episode_walks_each_state_once(monkeypatch):
    """Over a whole heuristic episode no state is walked twice: a turn
    reads the map its state got as the result of the turn before."""
    walks = _recorded_walks(monkeypatch)
    inst = kitchen_instance()
    episode = run_episode(inst, HeuristicAgent())
    assert episode.outcome == "success" and len(episode.turns) > 2
    assert len({id(state) for state in walks}) == len(walks)


def test_failed_turns_never_mutate_state():
    inst = kitchen_instance()
    engine = Engine(inst)
    state = inst.start_state()
    for raw, phase, _ in GOLDEN_FAILURES:
        if phase == "success":
            continue
        new_state, record = engine.execute(state, raw)
        assert new_state == state
        assert record.removes == frozenset() and record.adds == frozenset()


def test_format_violation_aborts():
    inst = kitchen_instance()
    episode = Episode(Engine(inst))
    record = episode.step("I think I should go north.")
    assert record.phase_outcome == "format-fail"
    assert episode.outcome == "aborted-format"


def test_text_after_first_line_is_ignored():
    inst = kitchen_instance()
    engine = Engine(inst)
    _, record = engine.execute(inst.start_state(),
                               "> open cupboard\nand then more thoughts")
    assert record.phase_outcome == "success"


def test_effects_match_action_templates():
    inst = kitchen_instance()
    engine = Engine(inst)
    state = inst.start_state()
    state, record = engine.execute(state, "> open cupboard")
    assert record.removes == frozenset({fact("closed", "cupboard")})
    assert record.adds == frozenset({fact("open", "cupboard")})
    state, record = engine.execute(state, "> take sandwich")
    assert record.removes == frozenset({fact("in", "sandwich", "cupboard")})
    assert record.adds == frozenset({fact("in", "sandwich", "inventory")})


def test_inventory_limit_blocks_third_take():
    inst = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("counter", "support", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"]),
                  ("peach", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "on(plate,counter)", "on(apple,counter)", "on(peach,counter)"],
        goals=["in(plate,inventory)"], inventory_limit=2)
    engine = Engine(inst)
    state = inst.start_state()
    state, _ = engine.execute(state, "> take apple")
    state, _ = engine.execute(state, "> take peach")
    state, record = engine.execute(state, "> take plate")
    assert record.phase_outcome == "precondition-fail"
    assert record.feedback == ("Your inventory is full. "
                               "You can't carry more than two objects.")
    assert state.inventory == ("apple", "peach")


def test_inventory_is_listed_in_id_order_not_pick_up_order():
    """The inventory is read off the state's facts, so it lists the carried
    objects by id whatever order they were taken in."""
    inst = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("counter", "support", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"]),
                  ("peach", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "on(apple,counter)", "on(peach,counter)"],
        goals=["on(apple,counter)"])
    engine = Engine(inst)
    state = inst.start_state()
    state, _ = engine.execute(state, "> take peach")
    state, _ = engine.execute(state, "> take apple")
    assert state.inventory == ("apple", "peach")
    _, record = engine.execute(state, "> examine inventory")
    assert record.feedback == ("In your inventory you have an apple "
                               "and a peach.")


def test_take_from_the_room_an_object_lies_in():
    inst = micro_instance(
        rooms=["kitchen", "pantry"], connections=[("kitchen", "pantry")],
        entities=[("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(apple,kitchen)"],
        goals=["in(apple,inventory)"])
    engine = Engine(inst)
    state = inst.start_state()
    _, record = engine.execute(state, "> take apple from pantry")
    assert record.phase_outcome == "precondition-fail"
    state, record = engine.execute(state, "> take apple from kitchen")
    assert record.phase_outcome == "success"
    assert record.feedback == "You take the apple."
    assert state.inventory == ("apple",)


def test_render_feedback():
    assert render_feedback("You take the {item}.",
                           {"item": "plate"}) == "You take the plate."
    with pytest.raises(MissingBinding):
        render_feedback("needs {x}", {"y": 1})


def test_scripted_optimal_replay_succeeds():
    inst = kitchen_instance()
    plan = solve_optimal(inst)
    record = run_episode(inst, ScriptedAgent.from_plan(inst, plan.actions))
    assert record.outcome == "success"
    assert len(record.turns) == plan.length


def test_immediate_done_is_lost():
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent(["> done"]))
    assert record.outcome == "lost"
    assert episode_summary(record)["goals_achieved"] == []
    with pytest.raises(RuntimeError, match="already ended"):
        record.step("> look")
    assert len(record.turns) == 1


def test_turn_limit_aborts():
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent(["> look"] * 60))
    assert record.outcome == "aborted-turn-limit"
    assert len(record.turns) == 50


def test_done_on_final_turn_is_not_an_abort():
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent(["> look"] * 49 + ["> done"]))
    assert record.outcome == "lost"
    assert len(record.turns) == 50


def test_goal_finality_undone_goal_is_lost():
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent([
        "> open cupboard", "> take sandwich", "> take plate", "> go pantry",
        "> put plate on table", "> put sandwich on table",  # both achieved
        "> take plate", "> done"]))                         # one undone
    assert record.outcome == "lost"
    assert episode_summary(record)["goals_achieved"] == ["on(sandwich,table)"]


def test_epistemic_gain_new_room_positive():
    inst = kitchen_instance()
    episode = Episode(Engine(inst))
    episode.step("> go pantry")
    assert episode.turns[-1].epistemic_gain >= 1
    # revisiting reveals nothing new
    episode.step("> go kitchen")
    episode.step("> go pantry")
    assert episode.turns[-1].epistemic_gain == 0


def test_observed_facts_nondecreasing():
    inst = kitchen_instance()
    episode = Episode(Engine(inst))
    seen = len(episode.observed)
    for raw in ["> look", "> go pantry", "> examine table", "> go bedroom",
                "> go pantry", "> go kitchen", "> open cupboard"]:
        episode.step(raw)
        assert len(episode.observed) >= seen
        seen = len(episode.observed)


def test_transcript_alternates_roles():
    inst = kitchen_instance()
    record_agent = ScriptedAgent(["> look", "> done"])
    episode = Episode(Engine(inst))
    while not episode.done:
        episode.step(record_agent.next_action(tuple(episode.transcript)))
    roles = [role for role, _ in episode.transcript]
    assert roles[0] == "environment"
    assert roles[1:] == ["agent", "environment"] * 2


def test_jsonl_lines_shape(tmp_path):
    from ifbench import write_episode
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent(["> look", "> done"]))
    path = tmp_path / "episode.jsonl"
    write_episode(record, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    import json
    rows = [json.loads(l) for l in lines]
    assert [r["type"] for r in rows] == ["turn", "turn", "summary"]
    assert rows[2]["outcome"] == "lost"
    assert rows[2]["phase_counts"]["success"] == 2


_COMMANDS = ["> look", "> open cupboard", "> close cupboard", "> take plate",
             "> take sandwich", "> put plate on table", "> put plate on counter",
             "> put sandwich on table", "> go pantry", "> go kitchen",
             "> go bedroom", "> examine cupboard", "> take spoon", "> open plate"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_COMMANDS), max_size=25))
def test_random_action_sequences_preserve_invariants(script):
    inst = kitchen_instance()
    engine = Engine(inst)
    state = inst.start_state()
    for raw in script:
        new_state, record = engine.execute(state, raw)
        validate_state(engine.world, new_state)
        assert record.feedback
        # the constructive visibility always matches the per-fact oracle
        assert record.revealed_facts == reference_visible(engine.world,
                                                          new_state)
        if record.phase_outcome != "success":
            assert new_state == state
        state = new_state


def test_written_summary_matches_record(tmp_path):
    from ifbench import read_episode_summary, solve_optimal, write_episode
    inst = kitchen_instance()
    plan = solve_optimal(inst)
    record = run_episode(inst, ScriptedAgent.from_plan(inst, plan.actions))
    path = tmp_path / "micro" / "micro.jsonl"  # <family>/<instance id>.jsonl
    path.parent.mkdir()
    written = write_episode(record, path)
    assert read_episode_summary(path) == written == episode_summary(record)
    assert written["turns"] == plan.length


# the probe of the checked summary reader: one seed-17 heuristic summary line,
# each key deleted or set to each of these values in turn
SUMMARY_KEYS = (
    "agent_log", "epistemic_turns", "family", "final_state", "goals_achieved",
    "goals_total", "grounded_turns", "instance_id", "optimal_length", "outcome",
    "phase_counts", "pragmatic_turns", "turns", "type")
PROBE_VALUES = (None, 0, -1, True, "x", "", [], {}, ["x"], 1.5)
# the mutants that read back: any of a key that no score reads, and these,
# which stay well-typed and consistent; of them, the second set scores
# otherwise, which only a replay of the turns can catch
UNREAD_KEYS = ("agent_log", "final_state")
READ_BACK = {"phase_counts.format-fail=0", "phase_counts.parse-fail=0",
             "phase_counts.resolution-fail=0", "phase_counts.precondition-fail=0",
             "pragmatic_turns=0"}
SCORED_OTHERWISE = {"epistemic_turns=0", "optimal_length=null"}


def _summary_mutants():
    """(key, mutant name, value) of each mutant; a value of `None` named
    "<key> deleted" deletes the key."""
    for key in [*SUMMARY_KEYS, *(f"phase_counts.{p}" for p in PHASES)]:
        yield pytest.param(key, f"{key} deleted", None, id=f"{key} deleted")
        for value in PROBE_VALUES:
            name = f"{key}={json.dumps(value)}"
            yield pytest.param(key, name, value, id=name)


@pytest.fixture(scope="module")
def heuristic_line(heuristic_records, tmp_path_factory):
    """The transcript text of the seed-17 heuristic episode of basic-easy-00."""
    from ifbench import write_episode
    path = tmp_path_factory.mktemp("summary") / "basic-easy-00.jsonl"
    write_episode(heuristic_records["basic-easy-00"][1], path)
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("key, name, value", _summary_mutants())
def test_summary_reader_reads_back_or_names_file_and_field(
        heuristic_line, tmp_path, key, name, value):
    from ifbench import aggregate, read_episode_summary
    *turns, line = heuristic_line.splitlines()
    summary = json.loads(line)
    assert tuple(sorted(summary)) == SUMMARY_KEYS
    original = aggregate([summary])
    field, _, phase = key.partition(".")
    target = summary[field] if phase else summary
    if name.endswith(" deleted"):
        del target[phase or field]
    else:
        target[phase or field] = value
    path = tmp_path / "basic-easy" / "basic-easy-00.jsonl"
    path.parent.mkdir()
    path.write_text("\n".join([*turns, json.dumps(summary)]) + "\n",
                    encoding="utf-8")
    if field in UNREAD_KEYS or name in READ_BACK | SCORED_OTHERWISE:
        scores = aggregate([read_episode_summary(path)])
        assert (scores != original) == (name in SCORED_OTHERWISE)
        return
    with pytest.raises(ValueError) as error:
        read_episode_summary(path)
    assert str(error.value).startswith(f"{path}: summary field ")
    assert f"'{field}'" in str(error.value)


def test_preexploration_plays_as_stored():
    inst = with_walk(kitchen_instance(), ["> go pantry", "> go kitchen"])
    episode = Episode(Engine(inst))
    assert episode.transcript[1:] == [
        (role, text) for step in inst.preexploration
        for role, text in zip(("agent", "environment"), step)]
    assert fact("at", "table", "pantry") in episode.observed
    assert episode.state == inst.start_state() and not episode.turns


@pytest.mark.parametrize("index, command, feedback, message", [
    (0, "> go pantry", "You are on the moon.",
     "step 0 '> go pantry': the engine's feedback is 'You are in a pantry."),
    (0, "> go bedroom", "You are in a bedroom.",
     "step 0 '> go bedroom' failed in precondition-fail: There is no passage"),
    (1, "go kitchen", "You are in a kitchen.",
     "step 1 'go kitchen' does not start with '>'"),
])
def test_preexploration_must_play_as_stored(index, command, feedback, message):
    inst = with_walk(kitchen_instance(), ["> go pantry", "> go kitchen"])
    walk = list(inst.preexploration)
    walk[index] = (command, feedback)
    with pytest.raises(ValueError, match=re.escape(
            f"micro: pre-exploration {message}")):
        Episode(Engine(replace(inst, preexploration=tuple(walk))))


def test_preexploration_must_return_to_start():
    inst = with_walk(kitchen_instance(), ["> go pantry"])
    with pytest.raises(ValueError, match=re.escape(
            "micro: pre-exploration walk did not return to start")):
        Episode(Engine(inst))


def _episode_states(inst, episode) -> list:
    """Every state of an episode: the start, the pre-exploration walk's and
    one after each turn."""
    engine = episode.engine
    state = inst.start_state()
    states = [state]
    for command, _ in inst.preexploration or ():
        state, _ = engine.execute(state, command)
        states.append(state)
    for turn in episode.turns:
        state = apply_delta(inst.world, state, turn.removes, turn.adds)
        states.append(state)
    return states


def _case(world, state, ident) -> str:
    """What kind of thing `ident` is in `state`, for coverage."""
    if ident == INVENTORY:
        return "inventory"
    holds = any(f.predicate in ("in", "on") and f.args[1] == ident
                for f in state.facts)
    if world.is_container(ident):
        if fact("open", ident) not in state.facts:
            return "container-closed"
        return "container-open-full" if holds else "container-open-empty"
    if world.is_support(ident):
        return "support-loaded" if holds else "support-empty"
    if ident in state.inventory:
        return "carried"
    where = next(f for f in sorted(state.facts) if f.args[:1] == (ident,)
                 and f.predicate in ("at", "in", "on"))
    if where.predicate == "at" and world.state_groups.get(ident):
        return "custom-state"
    return {"at": "on-floor", "on": "item-on", "in": "item-in"}[where.predicate]


def test_state_facts_lookup_matches_scan(oracle_records, heuristic_records):
    """`state_facts_of` looks up each candidate state fact; the reference
    scans every fact of the state. Both agree for every entity on every
    state of the seed-17 scripted and heuristic episodes, and so does
    visibility, which reads them."""
    checked = 0
    for records in (oracle_records.records, heuristic_records):
        for inst, episode in records.values():
            world = inst.world
            for state in _episode_states(inst, episode):
                assert visible_facts(world, state) == (
                    reference_visible(world, state))
                for eid in world.entities:
                    found = state_facts_of(world, state, eid)
                    assert found == reference_state_facts(world, state, eid)
                    checked += bool(found)
    assert checked


def test_descriptions_match_reference(oracle_records, heuristic_records):
    """Room and examine text read the state's perceivable map; the
    reference walks the facts.
    Both agree on every state of the seed-17 scripted and heuristic episodes
    and of the planner's search over criterion 4's micro corpus, for every
    entity the player perceives and the inventory."""
    worlds = []
    for records in (oracle_records.records, heuristic_records):
        for inst, episode in records.values():
            worlds.append((episode.engine, _episode_states(inst, episode)))
    for inst in micro_corpus():
        worlds.append((Engine(inst), reference_solve(inst)[1]))
    seen = set()
    for engine, states in worlds:
        for state in states:
            assert engine.room_description(state) == (
                reference_room_description(engine, state))
            for ident in [*state.perceivable, INVENTORY]:
                seen.add(_case(engine.world, state, ident))
                assert engine.entity_description(state, ident) == (
                    reference_entity_description(engine, state, ident))
    assert seen == {"inventory", "container-closed", "container-open-full",
                    "container-open-empty", "support-loaded", "support-empty",
                    "carried", "custom-state", "on-floor", "item-on",
                    "item-in"}
