"""Optimal-plan oracle: uniform-cost breadth-first search over canonical
fact sets, with deterministic lexicographic tie-breaking.

Actions with no effects (`examine`, `look`, `done`) are not branched on;
`done` ends every plan. The search also prunes branches that provably
cannot shorten a plan: taking or putting non-goal objects, `close`, and
`open` on containers that neither hide a goal object nor are goal targets.

The search runs on bit masks alone: a state is the player's room and the
bit mask of its facts (its key). Each candidate's step is compiled once per
search, into the search's own memo, and once per search and player room
into mask tests and effects (`_mask_moves`) from the fact forms of its
tests, the forms a turn decides on a state. It builds no state. `_replay`
checks the plan it returns through the preconditions of the memo's steps
and the checked `apply_delta`. No state holds the room graph:
a `go` test needs just the player in a room among the target's exits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, product
from math import inf
from typing import NamedTuple

from .grammar import ActionDef, GroundedAction, Step, fits_trait
from .instance import Instance
from .interpreter import Engine, Steps
from .world import (INVENTORY, PLAYER, Fact, InvariantViolation, WorldDef,
                    WorldState, apply_delta, perceivable_when)

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


def _candidates(instance: Instance) -> list[GroundedAction]:
    """The groundings the search branches on, in (verb, bindings) order,
    which fixes its tie-breaking."""
    engine = instance.engine
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
    for verb, action in engine.parser.actions.items():
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


class _Move(NamedTuple):
    """A candidate in mask form, with the player in one room. It applies to
    a key that holds all `need` bits, no `forbid` bit, all bits of one mask
    of each `any_of` group and, if `space`, fewer inventory bits than the
    limit; it clears `removes`, sets `adds` and moves the player to `room`."""
    grounded: GroundedAction
    need: int
    forbid: int
    any_of: tuple[tuple[int, ...], ...]
    space: bool
    removes: int
    adds: int
    room: str


def _mask(facts, bits: dict[Fact, int]) -> int:
    """The bits of `facts`; a fact with no bit is never held."""
    out = 0
    for f in facts:
        out |= bits.get(f, 0)
    return out


def _compile(step: Step, room: str, bits: dict[Fact, int],
             places: dict[str, list[Fact]],
             possible: set[Fact]) -> _Move | None:
    """`step` in mask form with the player in `room`; None if its tests can
    never hold there. A set of facts that a test needs all of is dropped
    unless all of them are `possible`: they have a bit, so that a state may
    hold them, and none places the player in another room. A location it
    removes as read from the state clears all of its subject's `places`: a
    state holds one of them."""
    need = forbid = 0
    any_of = []
    for form, _ in step.tests:
        sets = form.any_of if form.seen is None else perceivable_when(
            room, places.get(form.seen, ()))
        masks = tuple(_mask(s, bits) for s in sets if possible.issuperset(s))
        if not masks:
            return None
        if len(masks) == 1:
            need |= masks[0]
        else:
            any_of.append(masks)
        forbid |= _mask(form.none_of, bits)
    removes = chain(step.removes,
                    *(places.get(subject, ()) for subject in step.late_removes))
    to_room = next((f.args[1] for f in step.adds
                    if f.predicate == "at" and f.args[0] == PLAYER), room)
    return _Move(step.grounded, need, forbid, tuple(any_of),
                 any(form.space for form, _ in step.tests),
                 _mask(removes, bits), _mask(step.adds, bits), to_room)


def _mask_moves(engine: Engine, memo: Steps, start: WorldState,
                goal_facts: frozenset[Fact], candidates: list[GroundedAction]
                ) -> tuple[dict[Fact, int], dict[str, list[Fact]], int,
                           dict[str, list[_Move]]]:
    """A bit for each goal and each fact a reachable state can hold (the
    start's and those a candidate adds: other effects only remove a held
    fact), each subject's location facts with a bit, the inventory's bits,
    and each room's candidates in mask form, in candidate order; the
    candidates' steps are compiled into `memo`."""
    steps = [engine.step(grounded, memo) for grounded in candidates]
    bits: dict[Fact, int] = {}
    for f in chain(start.facts, goal_facts, *(step.adds for step in steps)):
        bits.setdefault(f, 1 << len(bits))
    places: dict[str, list[Fact]] = {}
    for f in bits:
        if f.predicate in ("at", "on", "in"):
            places.setdefault(f.args[0], []).append(f)
    carried = _mask([f for f in bits
                     if f.predicate == "in" and f.args[1] == INVENTORY], bits)
    moves = {}
    for room in engine.world.rooms:
        possible = bits.keys() - {f for f in places.get(PLAYER, ())
                                  if f.args[1] != room}
        moves[room] = [move for step in steps
                       if (move := _compile(step, room, bits, places, possible))]
    return bits, places, carried, moves


def solve_optimal(instance: Instance) -> PlanResult:
    """Minimum-length action sequence (including final `done`) that reaches a
    state satisfying every goal. Raises Unsolvable or SearchBudgetExceeded.

    The queue holds (room, key) pairs, and `parents` maps each key met to
    its parent's key and the step between them. Keys are only tested for
    equality, so the plan does not depend on the bit order (which follows
    the hash-seeded order of the start state's facts). The plan is replayed
    through the checked `apply_delta` before it is returned. A search may
    expand at most `DEFAULT_BUDGET` states."""
    goal_facts = frozenset(g.fact for g in instance.goals)
    start = instance.start_state()
    done = GroundedAction("done", ())
    if goal_facts <= start.facts:
        return PlanResult((done,), 1, 0)

    memo: Steps = {}  # this search's compiled steps, `_replay`'s too
    bits, _, carried, moves = _mask_moves(instance.engine, memo, start,
                                          goal_facts, _candidates(instance))
    goal_mask = _mask(goal_facts, bits)
    limit = inf if start.inventory_limit is None else start.inventory_limit
    start_key = _mask(start.facts, bits)
    parents: dict[int, tuple[int, GroundedAction] | None] = {start_key: None}
    queue: deque[tuple[str, int]] = deque([(start.player_room, start_key)])
    expanded = 0
    budget = DEFAULT_BUDGET
    while queue:
        room, key = queue.popleft()
        expanded += 1
        if expanded > budget:
            raise SearchBudgetExceeded(f"expanded more than {budget} states")
        for grounded, need, forbid, any_of, space, removes, adds, to in moves[room]:
            if (key & need != need or key & forbid
                    or space and (key & carried).bit_count() >= limit
                    or any_of and not all(any(key & m == m for m in masks)
                                          for masks in any_of)):
                continue
            new_key = key & ~removes | adds
            if new_key in parents:
                continue
            parents[new_key] = (key, grounded)
            if new_key & goal_mask == goal_mask:
                plan, back = [done], new_key
                while parents[back] is not None:
                    back, grounded = parents[back]
                    plan.append(grounded)
                plan.reverse()
                _replay(instance, memo, start, plan, goal_facts, bits, new_key)
                return PlanResult(tuple(plan), len(plan), expanded)
            queue.append((to, new_key))
    raise Unsolvable(instance.id)


def _replay(instance: Instance, memo: Steps, start: WorldState,
            plan: list[GroundedAction], goal_facts: frozenset[Fact],
            bits: dict[Fact, int], reached: int) -> None:
    """Check a found plan the way a turn would, with the search's compiled
    steps in `memo`: each step's preconditions hold and its delta goes
    through `apply_delta`, and the plan ends in the state whose facts have
    the bits of `reached`, a state that meets every goal.
    InvariantViolation if not."""
    engine, state = instance.engine, start
    for grounded in plan[:-1]:
        step = engine.step(grounded, memo)
        failure = step.failure(state)
        if failure is not None:
            raise InvariantViolation(
                f"{instance.id}: plan step {grounded} fails on replay "
                f"({failure})")
        state = apply_delta(engine.world, state, *step.effects(state))
    held = {f for f, b in bits.items() if reached & b}
    if state.facts != held or not goal_facts <= state.facts:
        raise InvariantViolation(
            f"{instance.id}: the replayed plan does not reach the goals")
