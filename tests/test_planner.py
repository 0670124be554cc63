from dataclasses import replace

import pytest

from ifbench import (Engine, ScriptedAgent, SearchBudgetExceeded, Unsolvable,
                     run_episode, solve_optimal)
from oracles import brute_force_optimal, micro_instance


def one_room():
    return micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("counter", "support", ["kitchen"]),
                  ("table", "support", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "at(table,kitchen)", "on(apple,counter)"],
        goals=["on(apple,table)"])


def hidden_apple():
    return micro_instance(
        rooms=["kitchen", "pantry"], connections=[("kitchen", "pantry")],
        entities=[("cupboard", "container", ["kitchen"]),
                  ("table", "support", ["pantry"]),
                  ("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(cupboard,kitchen)",
               "closed(cupboard)", "at(table,pantry)", "in(apple,cupboard)"],
        goals=["on(apple,table)"])


def test_minimal_plan():
    # brute force through the interpreter agrees: take, put, done
    inst = one_room()
    result = solve_optimal(inst)
    engine = Engine(inst)
    rendered = [engine.parser.render(a, engine.world) for a in result.actions]
    assert rendered == ["take apple", "put apple on table", "done"]
    assert result.length == 3
    assert brute_force_optimal(inst) == 3


def test_goal_already_satisfied():
    inst = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("table", "support", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(table,kitchen)", "on(apple,table)"],
        goals=["on(apple,table)"])
    result = solve_optimal(inst)
    assert result.length == 1
    assert [a.action for a in result.actions] == ["done"]


def test_open_precedes_take_for_hidden_goal():
    inst = hidden_apple()
    result = solve_optimal(inst)
    verbs = [a.action for a in result.actions]
    assert verbs.index("open") < verbs.index("take")
    assert result.length == brute_force_optimal(inst) == 5


def test_plan_replays_to_success(bench144):
    for family in ("basic-easy", "basic-hard", "synthetic-hard"):
        inst = bench144[family][0]
        result = solve_optimal(inst)
        record = run_episode(inst, ScriptedAgent.from_plan(inst, result.actions))
        assert record.outcome == "success"
        assert len(record.turns) == result.length == inst.optimal_length


def test_examine_and_look_never_in_plans(bench144):
    for family, instances in bench144.items():
        for inst in instances[:4]:
            verbs = {a.action for a in solve_optimal(inst).actions}
            assert not verbs & {"examine", "look"}


def test_pruned_equals_unpruned():
    for inst in (one_room(), hidden_apple()):
        assert (solve_optimal(inst, prune=True).length
                == solve_optimal(inst, prune=False).length)


def test_inventory_limit_monotonicity():
    inst = micro_instance(
        rooms=["kitchen", "pantry"], connections=[("kitchen", "pantry")],
        entities=[("counter", "support", ["kitchen"]),
                  ("table", "support", ["pantry"]),
                  ("apple", "takeable", ["kitchen"]),
                  ("peach", "takeable", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)", "at(table,pantry)",
               "on(apple,counter)", "on(peach,counter)", "on(plate,counter)"],
        goals=["on(apple,table)", "on(peach,table)", "on(plate,table)"])
    lengths = {}
    for limit in (1, 2, 3, None):
        limited = replace(inst, inventory_limit=limit)
        lengths[limit] = solve_optimal(limited).length
    assert lengths[1] >= lengths[2] >= lengths[3] == lengths[None]
    assert lengths[1] > lengths[None]  # one-at-a-time forces extra trips


def test_zero_limit_unsolvable():
    inst = replace(one_room(), inventory_limit=0)
    with pytest.raises(Unsolvable):
        solve_optimal(inst)


def test_budget_exceeded():
    with pytest.raises(SearchBudgetExceeded):
        solve_optimal(hidden_apple(), budget=1)


def test_close_needed_for_closed_goal():
    inst = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("table", "support", ["kitchen"]),
                  ("cupboard", "container", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(table,kitchen)",
               "at(cupboard,kitchen)", "closed(cupboard)", "on(apple,table)"],
        goals=["in(apple,cupboard)", "closed(cupboard)"])
    # open, take, put in, close again, done
    assert solve_optimal(inst).length == 5
    assert solve_optimal(inst, prune=False).length == 5
    assert brute_force_optimal(inst) == 5


def test_synthetic_hard_ternary_ordering(bench144):
    inst = bench144["synthetic-hard"][0]
    plan = solve_optimal(inst)
    ternary = [g for g in inst.state_groups if len(g.states) == 3][0]
    first_add = {a.verb: a.adds[0][1] for a in inst.extra_actions}
    verbs = [a.action for a in plan.actions if a.action in first_add
             and a.get("item") == ternary.entity]
    assert len(verbs) == 2
    assert first_add[verbs[0]] == ternary.states[1]
    assert first_add[verbs[1]] == ternary.states[2]
