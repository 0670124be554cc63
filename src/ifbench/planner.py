"""Optimal-plan oracle: uniform-cost breadth-first search over canonical
fact sets, with deterministic lexicographic tie-breaking.

Actions with no effects (`examine`, `look`, `done`) are not branched on;
`done` ends every plan. The search also prunes branches that provably
cannot shorten a plan: taking or putting non-goal objects, `close`, and
`open` on containers that neither hide a goal object nor are goal targets.
Candidates run as the engine's compiled steps, listed per player room
(`_moves_by_room`).

The search keeps bare states: it keys each one by a bit mask of its facts
and builds it with the unchecked `world.successor`, not `apply_delta`. Only
the plan it returns is checked: it is replayed through the steps'
preconditions and the checked `apply_delta` (`_replay`). Every other caller
of a delta still goes through `apply_delta`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .grammar import ActionDef, GroundedAction, fits_trait
from .instance import Instance
from .interpreter import GROUNDING, ROOM, STATE, Engine, Step
from .world import (Fact, InvariantViolation, StateView, WorldDef, WorldState,
                    apply_delta, successor)

DEFAULT_BUDGET = 500_000  # states a search may expand; read at each call


class Unsolvable(Exception):
    pass


class SearchBudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class PlanResult:
    actions: tuple[GroundedAction, ...]  # ends with `done`
    length: int
    states_expanded: int


def _groundings(world: WorldDef, action: ActionDef) -> list[GroundedAction]:
    """Every binding of the action's required parameters to room and entity
    ids that fit their traits."""
    ids = sorted(world.rooms.keys() | world.entities.keys())
    required = [p for p in action.params if not p.optional]
    pools = [[i for i in ids if fits_trait(world, i, p.trait)] for p in required]
    return [GroundedAction(action.verb,
                           tuple((p.name, v) for p, v in zip(required, combo)))
            for combo in product(*pools)]


def _candidates(engine: Engine, instance: Instance) -> list[GroundedAction]:
    """The groundings the search branches on, in (verb, bindings) order,
    which fixes its tie-breaking."""
    goal_items: dict[str, set[str]] = {}
    for goal in instance.goals:
        if goal.kind == "placement":
            goal_items.setdefault(goal.fact.args[0], set()).add(goal.fact.args[1])
    # containers that hide a goal object or are a goal target; open/closed
    # goal states keep those container actions in play
    needed_containers = {f.args[1] for f in instance.start_state().facts
                         if f.predicate == "in" and f.args[0] in goal_items}
    needed_containers.update(t for targets in goal_items.values()
                             for t in targets if engine.world.is_container(t))
    needed_containers.update(g.fact.args[0] for g in instance.goals
                             if g.fact.predicate == "open")
    closeable = {g.fact.args[0] for g in instance.goals
                 if g.fact.predicate == "closed"}

    out = []
    for verb, action in engine.actions.items():
        if verb == "close":
            out.extend(GroundedAction(verb, ((action.params[0].name, c),))
                       for c in closeable)
        elif verb == "open":
            out.extend(GroundedAction(verb, ((p.name, c),))
                       for p in action.params for c in needed_containers
                       if engine.world.has_trait(c, p.trait))
        elif verb == "take":
            out.extend(GroundedAction(verb, ((action.params[0].name, i),))
                       for i in goal_items)
        elif verb == "put":
            names = [p.name for p in action.params if not p.optional]
            out.extend(GroundedAction(verb, ((names[0], item), (names[1], t)))
                       for item, targets in goal_items.items() for t in targets)
        elif action.removes or action.adds:
            out.extend(_groundings(engine.world, action))
    out.sort(key=lambda grounded: (grounded.action, grounded.bindings))
    return out


class _RoomProbe(NamedTuple):
    """What a ROOM test reads: the player's room and the connects facts."""
    room: str
    facts: frozenset


def _moves_by_room(engine: Engine, start: WorldState,
                   candidates: list[GroundedAction]
                   ) -> dict[str, list[tuple[Step, tuple]]]:
    """For each room, the candidates that can apply with the player there,
    each with the tests left to run on a state, in candidate order.

    A test that reads only the grounding is decided once, and a candidate
    with a false one dropped. Compiled steps never change ``connects``
    facts, so a test that reads only the player's room and the connections
    is decided once per room, against the start state's connections."""
    live = []
    for grounded in candidates:
        step = engine.step(grounded)
        tests = {GROUNDING: [], ROOM: [], STATE: []}
        for test in step.tests:
            tests[test.reads].append(test.holds)
        if all(holds(None) for holds in tests[GROUNDING]):
            live.append((step, tests[ROOM], tuple(tests[STATE])))
    by_room = {}
    for room in engine.world.rooms:
        probe = _RoomProbe(room, start.facts)
        by_room[room] = [(step, state_tests)
                         for step, room_tests, state_tests in live
                         if all(holds(probe) for holds in room_tests)]
    return by_room


def solve_optimal(instance: Instance) -> PlanResult:
    """Minimum-length action sequence (including final `done`) that reaches a
    state satisfying every goal. Raises Unsolvable or SearchBudgetExceeded.

    Each fact the search meets gets a bit as it is first seen, and a state
    is keyed by the bits of its facts. A successor's key is its parent's
    with the step's removed bits cleared and added bits set; the bits of
    the facts a step resolves from its grounding are looked up once per
    search. The successor's `WorldState` is built, unchecked, only when its
    key is new. Keys are only tested for equality, so the plan does not
    depend on the bit order (which follows the hash-seeded order of the
    start state's facts). The plan is replayed through the checked
    `apply_delta` before it is returned. A search may expand at most
    `DEFAULT_BUDGET` states."""
    engine = Engine(instance)
    goal_facts = frozenset(g.fact for g in instance.goals)
    start = instance.start_state()
    done = GroundedAction("done", ())
    if goal_facts <= start.facts:
        return PlanResult((done,), 1, 0)

    bits: dict[Fact, int] = {}

    def bit(f: Fact) -> int:
        b = bits.get(f)
        if b is None:
            b = bits[f] = 1 << len(bits)
        return b

    def mask(facts) -> int:
        out = 0
        for f in facts:
            out |= bit(f)
        return out

    goal_mask = mask(goal_facts)
    start_mask = mask(start.facts)
    step_masks = {}
    moves = {}
    for room, listed in _moves_by_room(
            engine, start, _candidates(engine, instance)).items():
        for step, _ in listed:
            if step.grounded not in step_masks:
                step_masks[step.grounded] = (mask(step.removes), mask(step.adds))
        moves[room] = [(step, tests, *step_masks[step.grounded])
                       for step, tests in listed]

    parents: dict[int, tuple[int, GroundedAction] | None] = {start_mask: None}
    queue: deque[tuple[WorldState, int]] = deque([(start, start_mask)])
    expanded = 0
    budget = DEFAULT_BUDGET
    while queue:
        state, key = queue.popleft()
        expanded += 1
        if expanded > budget:
            raise SearchBudgetExceeded(f"expanded more than {budget} states")
        view = StateView(state)
        for step, tests, removes_bits, adds_bits in moves[state.player_room]:
            for holds in tests:
                if not holds(view):
                    break
            else:
                for late in step.late_removes:
                    removes_bits |= bit(late(view))
                for late in step.late_adds:
                    adds_bits |= bit(late(view))
                new_key = (key & ~removes_bits) | adds_bits
                if new_key in parents:
                    continue
                parents[new_key] = (key, step.grounded)
                new_state = successor(state, *step.effects(view))
                if new_key & goal_mask == goal_mask:
                    plan = [done]
                    while parents[new_key] is not None:
                        new_key, grounded = parents[new_key]
                        plan.append(grounded)
                    plan.reverse()
                    _replay(engine, start, plan, goal_facts, new_state)
                    return PlanResult(tuple(plan), len(plan), expanded)
                queue.append((new_state, new_key))
    raise Unsolvable(instance.id)


def _replay(engine: Engine, start: WorldState, plan: list[GroundedAction],
            goal_facts: frozenset[Fact], reached: WorldState) -> None:
    """Check a found plan the way a turn would: each step's preconditions
    hold and its delta goes through `apply_delta`, and the plan ends in
    `reached`, a state that meets every goal. InvariantViolation if not."""
    state = start
    for grounded in plan[:-1]:
        step = engine.step(grounded)
        view = StateView(state)
        failure = step.failure(view)
        if failure is not None:
            raise InvariantViolation(
                f"{engine.instance.id}: plan step {grounded} fails on replay "
                f"({failure})")
        state = apply_delta(engine.world, state, *step.effects(view))
    if state != reached or not goal_facts <= state.facts:
        raise InvariantViolation(
            f"{engine.instance.id}: the replayed plan does not reach the goals")
