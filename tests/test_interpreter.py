import pytest
from hypothesis import given, settings, strategies as st

from ifbench import (Engine, Episode, MissingBinding, ScriptedAgent, fact,
                     render_feedback, run_episode, solve_optimal)
from ifbench.interpreter import episode_to_lines
from ifbench.world import validate_state
from oracles import micro_instance, reference_visible


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


def test_failed_turn_walks_visibility_once(monkeypatch):
    # the precondition's view of the state also gives the revealed facts
    from ifbench import world
    walks = []
    perceivable = world._perceivable

    def counting_perceivable(state):
        walks.append(state)
        return perceivable(state)

    monkeypatch.setattr(world, "_perceivable", counting_perceivable)
    inst = kitchen_instance()
    _, record = Engine(inst).execute(inst.start_state(), "> take sandwich")
    assert record.phase_outcome == "precondition-fail"
    assert len(walks) == 1


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
    assert len(record.final_goals_achieved) == 0


def test_turn_limit_aborts():
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent(["> look"] * 60))
    assert record.outcome == "aborted-turn-limit"
    assert len(record.turns) == 50


def test_turn_limit_override():
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent(["> look"] * 60), turn_limit=5)
    assert record.outcome == "aborted-turn-limit"
    assert len(record.turns) == 5


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
    assert {str(g.fact) for g in record.final_goals_achieved} == {
        "on(sandwich,table)"}


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


def test_jsonl_lines_shape():
    inst = kitchen_instance()
    record = run_episode(inst, ScriptedAgent(["> look", "> done"]))
    lines = episode_to_lines(record)
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
    from ifbench.metrics import EpisodeSummary
    inst = kitchen_instance()
    plan = solve_optimal(inst)
    record = run_episode(inst, ScriptedAgent.from_plan(inst, plan.actions))
    path = tmp_path / "episode.jsonl"
    write_episode(record, path)
    from_file = EpisodeSummary.from_json(read_episode_summary(path))
    assert from_file == EpisodeSummary.from_record(record)
