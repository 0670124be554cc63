import time
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest

import ifbench.grammar as grammar
import ifbench.planner as planner
from ifbench import (Engine, SearchBudgetExceeded, Unsolvable, apply_delta,
                     run_episode, solve_optimal)
from ifbench.grammar import GroundedAction
from ifbench.world import INVENTORY, PLAYER, InvariantViolation
from oracles import (brute_force_optimal, micro_corpus, micro_instance,
                     plan_agent, reference_effects, reference_preconditions,
                     reference_solve, unpruned_candidates)


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
    rendered = [engine.parser.render(a) for a in result.actions]
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
        record = run_episode(inst, plan_agent(inst, result.actions))
        assert record.outcome == "success"
        assert len(record.turns) == result.length == inst.optimal_length


def test_examine_and_look_never_in_plans(bench144):
    for family, instances in bench144.items():
        for inst in instances[:4]:
            verbs = {a.action for a in solve_optimal(inst).actions}
            assert not verbs & {"examine", "look"}


def unpruned_length(inst) -> int:
    return reference_solve(inst, unpruned_candidates(inst))[0].length


def test_pruned_equals_unpruned():
    for inst in (one_room(), hidden_apple()):
        assert solve_optimal(inst).length == unpruned_length(inst)


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


def test_budget_exceeded(monkeypatch):
    monkeypatch.setattr(planner, "DEFAULT_BUDGET", 1)
    with pytest.raises(SearchBudgetExceeded):
        solve_optimal(hidden_apple())


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
    assert unpruned_length(inst) == 5
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


def _episode_states(inst, start, records) -> list:
    """The states of the pre-exploration walk, then those the episodes in
    `records` pass through."""
    engine = Engine(inst)
    states = [start]
    for command, _ in inst.preexploration or ():
        states.append(engine.execute(states[-1], command)[0])
    for record in records:
        state = start  # the walk is closed: it ends here
        for turn in record.turns:
            state = apply_delta(inst.world, state, turn.removes, turn.adds)
            states.append(state)
    return list(dict.fromkeys(states))


def _turn_groundings(inst, engine) -> list[GroundedAction]:
    """Groundings only turns reach: examine (of every thing and the
    inventory), look, done, and take of each goal object from each room or
    receptacle."""
    world = engine.world
    receptacles = [e for e in sorted(world.entities)
                   if world.is_container(e) or world.is_support(e)]
    goal_items = sorted({g.fact.args[0] for g in inst.goals
                         if g.kind == "placement"})
    out = [GroundedAction("examine", (("item", e),))
           for e in sorted(world.entities) + [INVENTORY]]
    out += [GroundedAction("look", ()), GroundedAction("done", ())]
    out += [GroundedAction("take", (("item", e), ("source", s)))
            for e in goal_items for s in sorted(world.rooms) + receptacles]
    return out


def _effects_or_error(effects, *args):
    try:
        return effects(*args)
    except ValueError as exc:  # location_of a subject with no location
        return str(exc)


def test_compiled_steps_match_reference(bench144, oracle_records,
                                        heuristic_records):
    """Compiled steps, and the planner's mask moves compiled from them,
    against the uncompiled code they replace, on every state the stored
    plans, the heuristic episodes and the search of each family's first
    instance reach: the failure kind of every unpruned candidate, the
    effects of every candidate that applies, and which mask moves apply.
    On the first instance's episode states, the groundings only turns reach
    are checked too, and effects are compared whether the action applies or
    not."""
    started = time.perf_counter()
    checked = 0
    for family, instances in sorted(bench144.items()):
        for index, inst in enumerate(instances):
            records = (oracle_records.records[inst.id][1],
                       heuristic_records[inst.id][1])
            start = inst.start_state()
            states = _episode_states(inst, start, records)
            engine = Engine(inst)
            candidates = unpruned_candidates(inst)
            bits, _, carried, moves = planner._mask_moves(
                engine, {}, start, frozenset(g.fact for g in inst.goals),
                candidates)
            compiled = [(engine.step(g, {}), engine.parser.actions[g.action], g)
                        for g in candidates]
            if index == 0:
                turn_only = [(engine.step(g, {}), engine.parser.actions[g.action], g)
                             for g in _turn_groundings(inst, engine)]
                for state in states:
                    for step, action, grounded in turn_only:
                        assert step.failure(state) == reference_preconditions(
                            engine, state, action, grounded), (inst.id, grounded)
                    for step, action, grounded in compiled + turn_only:
                        assert (_effects_or_error(step.effects, state)
                                == _effects_or_error(reference_effects, engine,
                                                     state, action, grounded))
                    checked += len(compiled) + len(turn_only)
                result, expanded = reference_solve(inst)
                assert len(expanded) == result.states_expanded > 0
                states = list(dict.fromkeys(states + expanded))
            for state in states:
                passing = []
                for step, action, grounded in compiled:
                    failure = step.failure(state)
                    assert failure == reference_preconditions(
                        engine, state, action, grounded), (inst.id, grounded)
                    if failure is None:
                        assert step.effects(state) == reference_effects(
                            engine, state, action, grounded), (inst.id, grounded)
                        passing.append(grounded)
                checked += len(compiled)
                key = planner._mask(state.facts, bits)
                listed = [move.grounded for move in moves[state.player_room]
                          if _mask_holds(move, key, carried,
                                         inst.inventory_limit)]
                assert passing == listed, (inst.id, state)
    assert checked > 500_000
    assert time.perf_counter() - started < 60.0


# states_expanded summed over each family's 16 searches at seed 17
SEED17_STATES_EXPANDED = {
    "basic-easy": 2_008, "basic-hard": 5_546,
    "limit-easy": 1_930, "limit-hard": 5_638,
    "preexplore-easy": 1_999, "preexplore-hard": 5_739,
    "synthetic-easy": 1_985, "synthetic-medium": 1_977, "synthetic-hard": 431,
}


def _matches_reference(inst, candidates=None) -> int:
    """Assert that `solve_optimal` returns the plan and expansion count of
    the search that checks every state (over the same candidates, or only
    the same plan length over other `candidates`). Returns the states
    expanded."""
    result = solve_optimal(inst)
    reference, expanded = reference_solve(inst, candidates)
    if candidates is None:
        assert result == reference, inst.id
    assert result.length == reference.length, inst.id
    assert len(expanded) == reference.states_expanded, inst.id
    return result.states_expanded


def test_bare_search_matches_reference(bench144):
    """The search keeps bare states and keys them by fact bits; the
    reference builds each new state with the checked `apply_delta` and keys
    it by its fact set. Both agree on every seed-17 search and on criterion
    4's micro corpus. Over the unpruned candidates, the reference finds a
    plan of the same length."""
    expanded = {family: sum(_matches_reference(inst) for inst in instances)
                for family, instances in bench144.items()}
    assert expanded == SEED17_STATES_EXPANDED
    assert sum(expanded.values()) == 27_253
    for inst in micro_corpus():
        _matches_reference(inst)
        _matches_reference(inst, unpruned_candidates(inst))


def _mask_holds(move, key, carried, limit) -> bool:
    """Whether a compiled move (or None, a move dropped for its room)
    applies to the state with `key`, as `planner._Move` states it, where
    `carried` holds the inventory's bits."""
    return (move is not None and key & move.need == move.need
            and not key & move.forbid
            and all(any(key & m == m for m in masks) for masks in move.any_of)
            and not (move.space and limit is not None
                     and (key & carried).bit_count() >= limit))


def _masks_match_steps(inst, candidates=None) -> int:
    """On every state the reference search expands, over the planner's
    candidates (or `candidates`), each candidate's mask test equals its
    step's `failure` being None, and where they hold its mask effects equal
    `step.effects` and its room is that of `apply_delta`'s result. Every
    fact of those states has a bit. Returns the (state, candidate) pairs
    checked."""
    engine = Engine(inst)
    start = inst.start_state()
    goal_facts = frozenset(g.fact for g in inst.goals)
    candidates = candidates or planner._candidates(inst)
    bits, _, carried, moves = planner._mask_moves(engine, {}, start, goal_facts,
                                                  candidates)
    checked = 0
    for state in reference_solve(inst, candidates)[1]:
        assert state.facts <= bits.keys(), inst.id
        key = planner._mask(state.facts, bits)
        compiled = {move.grounded: move for move in moves[state.player_room]}
        assert list(compiled) == [g for g in candidates if g in compiled]
        for grounded in candidates:
            step = engine.step(grounded, {})
            move = compiled.get(grounded)
            holds = step.failure(state) is None
            assert _mask_holds(move, key, carried, inst.inventory_limit) == (
                holds), (inst.id, grounded, state)
            if holds:
                removes, adds = step.effects(state)
                assert key & move.removes == planner._mask(removes, bits)
                assert removes <= state.facts and adds <= bits.keys()
                assert move.adds == planner._mask(adds, bits)
                assert move.room == apply_delta(
                    inst.world, state, removes, adds).player_room
            checked += 1
    return checked


def test_mask_moves_match_steps(bench144):
    """The search's mask tests and effects against the compiled steps'
    `failure` and `effects`, on every state the reference search expands at
    seed 17 and on criterion 4's micro corpus, over the pruned and the
    unpruned candidates."""
    checked = sum(_masks_match_steps(inst)
                  for instances in bench144.values() for inst in instances)
    for inst in micro_corpus():
        checked += _masks_match_steps(inst)
        checked += _masks_match_steps(inst, unpruned_candidates(inst))
    assert checked > 100_000


def _possible(bits, room: str) -> set:
    """The facts with a bit that a state with the player in `room` may
    hold: all but the player's location facts for the other rooms."""
    return {f for f in bits if f.predicate != "at" or f.args[0] != PLAYER
            or f.args[1] == room}


def test_every_check_has_a_mask_form():
    """Each precondition check, alone, is decided alike by the uncompiled
    reference, by its fact form's `holds` (a check with no form holds in
    every state) and by that form compiled into a move, on every state the
    unpruned reference search of the micro corpus expands, with each id of
    the instance or none (an unbound parameter) as the parameter, each id or
    none as the source, and each unary predicate with a bit as the state."""
    names = set()
    for inst in micro_corpus():
        engine = Engine(inst)
        world = engine.world
        start = inst.start_state()
        goal_facts = frozenset(g.fact for g in inst.goals)
        candidates = unpruned_candidates(inst)
        bits, places, carried, _ = planner._mask_moves(
            engine, {}, start, goal_facts, candidates)
        by_room = {room: [] for room in world.rooms}
        for state in reference_solve(inst, candidates)[1] or [start]:
            by_room[state.player_room].append(
                (planner._mask(state.facts, bits), state))
        ids = sorted(world.entities) + sorted(world.rooms) + [INVENTORY]
        unary = sorted({f.predicate for f in bits if len(f.args) == 1})
        for name, build in grammar._CHECKS.items():
            names.add(name)
            # only source_matches reads the source
            sources = [None] + ids if name == "source_matches" else [None]
            for ident, source, held in product(ids + [None], sources,
                                               unary or ["open"]):
                cond = {"check": name, "param": "item", "fail": "x",
                        "state": held, "entity": ids[0]}
                grounded = GroundedAction("probe", (
                    (("item", ident),) if ident else ()) + (
                    (("source", source),) if source else ()))
                form = build(world, cond, ident, grounded)
                step = grammar.Step(
                    grounded, ((form, "x"),) if form else (),
                    frozenset(), frozenset(), ())
                probe = SimpleNamespace(preconditions=(cond,))
                for room, keyed in by_room.items():
                    move = planner._compile(step, room, bits, places,
                                            _possible(bits, room))
                    for key, state in keyed:
                        expected = reference_preconditions(
                            engine, state, probe, grounded) is None
                        assert (form is None
                                or form.holds(state)) == expected, (
                            name, ident, source)
                        assert _mask_holds(
                            move, key, carried, inst.inventory_limit) == (
                            expected), (name, ident, source)
    assert names == set(grammar._CHECKS) and len(names) == 12


def _one_room_search():
    """The one-room instance, its engine, start, goal facts and fact bits."""
    inst = one_room()
    engine = Engine(inst)
    start = inst.start_state()
    goal_facts = frozenset(g.fact for g in inst.goals)
    bits, *_ = planner._mask_moves(engine, {}, start, goal_facts,
                                   planner._candidates(inst))
    return inst, engine, start, goal_facts, bits


def test_replay_rejects_a_wrong_plan():
    inst, engine, start, goal_facts, bits = _one_room_search()
    take, put, done = solve_optimal(inst).actions
    after_take = apply_delta(inst.world, start,
                             *engine.step(take, {}).effects(start))
    reached = apply_delta(inst.world, after_take,
                          *engine.step(put, {}).effects(after_take))

    def key(state):
        return planner._mask(state.facts, bits)

    planner._replay(inst, {}, start, [take, put, done], goal_facts, bits,
                    key(reached))
    with pytest.raises(InvariantViolation, match="fails on replay"):
        planner._replay(inst, {}, start, [put, done], goal_facts, bits,
                        key(reached))
    with pytest.raises(InvariantViolation, match="does not reach"):
        planner._replay(inst, {}, start, [take, done], goal_facts, bits,
                        key(reached))
    with pytest.raises(InvariantViolation, match="does not reach"):
        planner._replay(inst, {}, start, [take, done], goal_facts, bits,
                        key(after_take))
    # the right plan, but not the key the search reached
    for wrong in (key(after_take), key(reached) | key(start)):
        with pytest.raises(InvariantViolation, match="does not reach"):
            planner._replay(inst, {}, start, [take, put, done], goal_facts,
                            bits, wrong)


def test_search_with_a_wrong_successor_raises(monkeypatch):
    """A compiled inventory test that forgets the limit lets the search
    carry two objects at once; the replay of that plan fails. A compiled
    `take` that leaves the object's old location set makes the search reach
    a key that the replayed plan does not."""
    inst = micro_instance(
        rooms=["kitchen", "pantry"], connections=[("kitchen", "pantry")],
        entities=[("table", "support", ["pantry"]),
                  ("apple", "takeable", ["kitchen"]),
                  ("peach", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(table,pantry)", "at(apple,kitchen)",
               "at(peach,kitchen)"],
        goals=["on(apple,table)", "on(peach,table)"], inventory_limit=1)
    compile_move = planner._compile

    def unlimited(*args):
        move = compile_move(*args)
        return move and move._replace(space=False)

    monkeypatch.setattr(planner, "_compile", unlimited)
    with pytest.raises(InvariantViolation, match="fails on replay"):
        solve_optimal(inst)

    def sticky(step, room, bits, places, possible):
        move = compile_move(step, room, bits, places, possible)
        if move is not None and step.late_removes:
            move = move._replace(removes=move.removes & ~planner._mask(
                places[step.grounded.get("item")], bits))
        return move

    monkeypatch.setattr(planner, "_compile", sticky)
    with pytest.raises(InvariantViolation, match="does not reach"):
        solve_optimal(one_room())
