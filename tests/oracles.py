"""Independent test oracles: a per-fact visibility filter and a raw-string
brute-force optimal search driven through the public interpreter, plus a
builder for handcrafted micro instances."""

from __future__ import annotations

from itertools import product

from ifbench import Engine, Instance
from ifbench.grammar import Lexicon, staple_verbs
from ifbench.world import (EntityDef, GoalCondition, RoomDef, StateGroup,
                           WorldDef, WorldState, Fact, fact, parse_fact)


def reference_visible(world: WorldDef, state: WorldState) -> frozenset[Fact]:
    """Visibility decided fact-by-fact with an explicit rule per predicate
    (structurally unlike the constructive implementation)."""

    def entity_visible(eid: str) -> bool:
        if eid in state.inventory:
            return True
        holder = eid
        # follow at/on/in chains up to the room level
        for _ in range(4):
            if fact("at", holder, state.player_room) in state.facts:
                return True
            nxt = None
            for f in state.facts:
                if f.predicate == "on" and f.args[0] == holder:
                    nxt = f.args[1]
                elif f.predicate == "in" and f.args[0] == holder:
                    if f.args[1] == "inventory":
                        return False
                    if fact("open", f.args[1]) not in state.facts:
                        return False
                    nxt = f.args[1]
            if nxt is None:
                return False
            holder = nxt
        return False

    keep = set()
    for f in state.facts:
        pred, args = f.predicate, f.args
        if pred == "connects":
            ok = args[0] == state.player_room
        elif pred == "at":
            ok = args[1] == state.player_room
        elif pred == "on":
            ok = fact("at", args[1], state.player_room) in state.facts
        elif pred == "in":
            if args[1] == "inventory":
                ok = True
            else:
                ok = (fact("at", args[1], state.player_room) in state.facts
                      and fact("open", args[1]) in state.facts)
        else:  # unary state fact
            ok = entity_visible(args[0])
        if ok:
            keep.add(f)
    return frozenset(keep)


def enumerate_commands(instance: Instance) -> list[str]:
    """Every raw command string over the instance's surface vocabulary,
    including senseless combinations the interpreter must reject."""
    lex = instance.lexicon or Lexicon()
    nouns = sorted([lex.noun(e.noun) for e in instance.entities]
                   + [lex.noun(r.noun) for r in instance.rooms]
                   + ["inventory"])
    commands = []
    for action in instance.actions:
        verb = lex.verb(action.verb)
        required = [p for p in action.params if not p.optional]
        if not required:
            commands.append(f"> {verb}")
        elif len(required) == 1:
            commands.extend(f"> {verb} {n}" for n in nouns)
        else:
            for a, b in product(nouns, nouns):
                commands.append(f"> {verb} {a} on {b}")
                commands.append(f"> {verb} {a} in {b}")
    return commands


def brute_force_optimal(instance: Instance, max_depth: int = 50) -> int | None:
    """Iterative-deepening-equivalent breadth-first enumeration of raw
    command strings through the public interpreter; returns the optimal
    number of turns including the final `done`, or None if unreachable."""
    engine = Engine(instance)
    goal_facts = frozenset(g.fact for g in instance.goals)
    start = instance.start_state()
    if goal_facts <= start.facts:
        return 1
    commands = enumerate_commands(instance)
    seen = {start.facts}
    frontier = [start]
    for depth in range(1, max_depth):
        nxt = []
        for state in frontier:
            for command in commands:
                new_state, record = engine.execute(state, command)
                if record.phase_outcome != "success":
                    continue
                if new_state.facts in seen:
                    continue
                seen.add(new_state.facts)
                if goal_facts <= new_state.facts:
                    return depth + 1  # plus the final done turn
                nxt.append(new_state)
        if not nxt:
            return None
        frontier = nxt
    return None


# -- micro instance builder ---------------------------------------------------

_TRAITS = {
    "support": frozenset({"support", "room-fixture"}),
    "container": frozenset({"container", "openable", "room-fixture"}),
    "takeable": frozenset({"takeable"}),
}


def micro_instance(rooms, connections, entities, facts, goals,
                   inventory_limit=None, instance_id="micro",
                   state_groups=(), lexicon=None, extra_actions=(),
                   prompt="You are in a test world.") -> Instance:
    """Handcrafted instance. `rooms`: id list (noun = id with underscores
    swapped); `entities`: (id, kind, allowed_rooms) triples with kind in
    support/container/takeable; `facts`/`goals`: fact strings. Container
    state groups are added automatically."""
    room_defs = []
    adjacency = {r: set() for r in rooms}
    for a, b in connections:
        adjacency[a].add(b)
        adjacency[b].add(a)
    for r in rooms:
        room_defs.append(RoomDef(r, r.replace("_", " "),
                                 frozenset(adjacency[r])))
    entity_defs = []
    groups = list(state_groups)
    parsed_facts = [parse_fact(f) for f in facts]
    for eid, kind, allowed in entities:
        entity_defs.append(EntityDef(eid, eid.replace("_", " "),
                                     _TRAITS[kind], frozenset(allowed)))
        if kind == "container":
            initial = "open"
            for f in parsed_facts:
                if f.predicate in ("open", "closed") and f.args == (eid,):
                    initial = f.predicate
            groups.append(StateGroup(eid, ("open", "closed"), initial))
    goal_conditions = tuple(
        GoalCondition("placement" if parse_fact(g).predicate in ("on", "in")
                      else "entity-state", parse_fact(g))
        for g in goals)
    return Instance(
        id=instance_id, family="micro",
        rooms=tuple(room_defs),
        connections=tuple(sorted(tuple(sorted(c)) for c in connections)),
        entities=tuple(entity_defs),
        state_groups=tuple(groups),
        initial_facts=tuple(parsed_facts),
        goals=goal_conditions,
        inventory_limit=inventory_limit,
        lexicon=lexicon,
        base_verbs=staple_verbs(),
        extra_actions=tuple(extra_actions),
        preexploration=None,
        prompt=prompt,
        optimal_plan=None,
    )
