"""World model: typed entity/room registry and immutable world states.

A world state is its set of grounded predicate tuples and nothing more: the
player's room, the inventory (in id order) and what the player perceives
are read off those facts, never stored beside them. Its predicates are
``at``, ``in``, ``on`` plus per-entity state groups (``open``/``closed`` for
containers, custom unary states for stateful objects). The room graph is the
world's (`WorldDef.exits`, built and checked once by `room_exits`), shown as
``connects`` facts by `visible_facts` and `state_to_json`.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from typing import Iterable, Mapping, NamedTuple

PLAYER = "player"
INVENTORY = "inventory"
CONNECTS = "connects"
# the engine's own predicates: no state name, bar a container's open/closed
ENGINE_PREDICATES = frozenset({"at", "on", "in", "open", "closed", CONNECTS})

_FACT_RE = re.compile(r"^([a-z_][\w-]*)\(([^()]*)\)$")


class InvariantViolation(Exception):
    """A delta produced a world state that breaks an invariant (buggy action)."""


class Fact(NamedTuple):
    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(self.args)})"


def fact(predicate: str, *args: str) -> Fact:
    return Fact(predicate, tuple(args))


def parse_fact(text: str) -> Fact:
    m = _FACT_RE.match(text.strip()) if isinstance(text, str) else None
    if not m:
        raise ValueError(f"not a fact string: {text!r}")
    args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2) else ()
    return Fact(m.group(1), args)


@dataclass(frozen=True)
class EntityDef:
    id: str
    noun: str
    traits: frozenset[str]
    allowed_rooms: frozenset[str]

    def __post_init__(self):
        _check_noun(self.id, self.noun)
        if "container" in self.traits and "support" in self.traits:
            raise ValueError(f"{self.id}: container and support are exclusive")
        if "container" in self.traits and "openable" not in self.traits:
            raise ValueError(f"{self.id}: containers must be openable")
        if "takeable" in self.traits and self.traits & {"container", "support"}:
            raise ValueError(f"{self.id}: takeable entities cannot be receptacles")
        if not self.allowed_rooms:
            raise ValueError(f"{self.id}: allowed_rooms must be non-empty")


@dataclass(frozen=True)
class RoomDef:
    id: str
    noun: str
    allowed_adjacent: frozenset[str]

    def __post_init__(self):
        _check_noun(self.id, self.noun)


def _check_noun(ident: str, noun) -> None:
    if not isinstance(noun, str) or not noun:
        raise ValueError(f"{ident}: noun {noun!r} is not a non-empty string")


@dataclass(frozen=True)
class StateGroup:
    """Mutually exclusive unary states of one entity, e.g. open/closed."""

    entity: str
    states: tuple[str, ...]
    initial: str | None  # None: entity may start with no state fact

    def __post_init__(self):
        if self.initial is not None and self.initial not in self.states:
            raise ValueError(f"{self.entity}: initial state {self.initial!r} "
                             f"is not one of {', '.join(self.states)}")


@dataclass(frozen=True)
class GoalCondition:
    kind: str  # "placement" | "entity-state"
    fact: Fact


@dataclass(frozen=True)
class WorldDef:
    """Immutable registry an episode plays in: entities, rooms, state groups
    and the room graph, each room's sorted neighbours (`room_exits`)."""

    entities: Mapping[str, EntityDef]
    rooms: Mapping[str, RoomDef]
    state_groups: Mapping[str, StateGroup]
    exits: Mapping[str, tuple[str, ...]]

    def has_trait(self, entity_id: str, trait: str) -> bool:
        e = self.entities.get(entity_id)
        return e is not None and trait in e.traits

    def is_container(self, entity_id: str) -> bool:
        return self.has_trait(entity_id, "container")

    def is_support(self, entity_id: str) -> bool:
        return self.has_trait(entity_id, "support")

    def is_takeable(self, entity_id: str) -> bool:
        return self.has_trait(entity_id, "takeable")

    def noun_of(self, ident: str) -> str:
        if ident in self.entities:
            return self.entities[ident].noun
        if ident in self.rooms:
            return self.rooms[ident].noun
        if ident == INVENTORY:
            return "inventory"
        return ident

    @cached_property
    def state_predicates(self) -> frozenset[str]:
        """The states of every state group, worked out once per world."""
        return frozenset().union(*(g.states for g in self.state_groups.values()))


def room_exits(rooms: Iterable[str], connections: Iterable[tuple[str, str]]
               ) -> dict[str, tuple[str, ...]]:
    """The room graph: each of `rooms` mapped to its sorted neighbours along
    `connections`, pairs of rooms joined both ways. InvariantViolation for
    a pair that names an unknown room or a graph that is not connected."""
    exits: dict[str, set[str]] = {room: set() for room in rooms}
    for a, b in connections:
        if a not in exits or b not in exits:
            raise InvariantViolation(f"connects({a},{b}): unknown room")
        exits[a].add(b)
        exits[b].add(a)
    graph = {room: tuple(sorted(others)) for room, others in exits.items()}
    if graph and len(room_distances(graph, min(graph))) < len(graph):
        raise InvariantViolation("room graph is not connected")
    return graph


def room_distances(exits: Mapping[str, Iterable[str]],
                   origin: str) -> dict[str, int]:
    """Each room reachable from `origin` mapped to its fewest steps away."""
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        cur = queue.popleft()
        for nxt in exits[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


@dataclass(frozen=True)
class WorldState:
    """A world state is its facts, plus the carry limit it is played under.

    The player's room, the inventory and the perceivable map are read off
    the facts when first asked and kept in the instance dict, not in
    fields, so __eq__, __hash__ and `state_to_json`'s facts never see them;
    two threads that read one at once can only store equal values."""

    facts: frozenset[Fact]
    inventory_limit: int | None = None

    @cached_property
    def player_room(self) -> str:
        """The room of the state's ``at(player, _)`` fact."""
        return self.location_of(PLAYER).args[1]

    @cached_property
    def inventory(self) -> tuple[str, ...]:
        """The ids of the ``in(_, inventory)`` facts, sorted."""
        return tuple(sorted(f.args[0] for f in self.facts
                            if f.predicate == "in" and f.args[1] == INVENTORY))

    @cached_property
    def perceivable(self) -> dict[str, Fact]:
        """Each entity the player can perceive, mapped to the location fact
        that places it in the player's room, on or (if open) in something
        there, or in the inventory."""
        return self._perceive()

    def _perceive(self) -> dict[str, Fact]:
        # No holder's traits are looked up: only takeables are ``on`` or
        # ``in`` something, ``on`` targets are supports and ``in`` targets
        # containers or the inventory, as `validate_state` and
        # `apply_delta` enforce.
        room = self.player_room
        here = {}
        held = []  # the on and in facts, in fact order
        for f in self.facts:
            predicate, args = f
            if predicate == "at":
                if args[1] == room and args[0] != PLAYER:
                    here[args[0]] = f
            elif predicate == "on" or predicate == "in":
                held.append(f)
        found = dict(here)
        for f in held:
            holder = f.args[1]
            if holder == INVENTORY or holder in here and (
                    f.predicate == "on" or fact("open", holder) in self.facts):
                found[f.args[0]] = f
        return found

    def location_of(self, subject: str) -> Fact:
        """The first ``at``/``on``/``in`` fact about `subject` in the
        state's fact order; ValueError if there is none."""
        for f in self.facts:
            if f.predicate in ("at", "on", "in") and f.args[0] == subject:
                return f
        raise ValueError(f"{subject} has no location fact")


def initial_state(world: WorldDef, facts: Iterable[Fact],
                  inventory_limit: int | None = None) -> WorldState:
    """Build and validate a state from a fact list, whose first bad fact,
    in the order given, is the one an InvariantViolation names."""
    ordered = list(facts)
    for f in ordered:
        _check_fact(world, f)
    state = WorldState(frozenset(ordered), inventory_limit)
    validate_state(world, state)
    return state


def validate_state(world: WorldDef, state: WorldState) -> None:
    """Raise InvariantViolation unless every world-state invariant holds."""
    for f in state.facts:  # before the checks below read their arguments
        _check_fact(world, f)
    player_at = [f for f in state.facts
                 if f.predicate == "at" and f.args[0] == PLAYER]
    if len(player_at) != 1:
        raise InvariantViolation(f"expected one at(player, _), got {player_at}")
    if player_at[0].args[1] not in world.rooms:
        raise InvariantViolation(f"unknown room {player_at[0].args[1]}")

    # every takeable entity has exactly one location fact, at a valid place
    placed = {eid: 0 for eid in world.entities if world.is_takeable(eid)}
    for f in state.facts:
        if f.predicate in ("at", "on", "in") and f.args[0] in placed:
            if not _valid_place(world, f):
                raise InvariantViolation(f"{f}: not a valid location")
            placed[f.args[0]] += 1
    for eid, count in placed.items():
        if count != 1:
            raise InvariantViolation(f"{eid} has {count} location facts")

    for eid in world.entities:
        group = world.state_groups.get(eid)
        if world.is_container(eid) and not (group and group.initial and set(
                group.states) == {"open", "closed"}):
            raise InvariantViolation(f"{eid}: a container needs a state group "
                                     "of open and closed with an initial state")
    for eid in world.state_groups:
        _check_state_group(world, state, eid)
    _check_inventory(state)


def apply_delta(world: WorldDef, state: WorldState,
                removes: Iterable[Fact], adds: Iterable[Fact]) -> WorldState:
    """Return the state with `removes` taken out and `adds` put in.

    `state` must satisfy every invariant of `validate_state`, as each state
    built by `initial_state` or this function does. The
    result is therefore checked only where the delta lands:

    - each added fact has a known predicate and the right arity,
      ``open``/``closed`` hold only of containers, and only takeables are
      ``on`` or ``in`` something;
    - the player, if the delta moves it, and each takeable whose location
      facts it touches keep exactly one location fact, and each added one
      points at a room, a support, a container or the inventory;
    - each entity whose state group it touches holds at most one state, and
      one if the group has an initial state;
    - if it touches ``in(_, inventory)``, the inventory stays within the
      limit.

    The result's player room and inventory are not carried over: like any
    state's, they are read off its facts when first asked.

    Raises InvariantViolation when the delta does not fit the state or the
    result breaks an invariant; both signal a buggy action definition.

    Turns, agents and pre-exploration walks make every state with this
    function. The planner's search builds no state: it works on fact bit
    masks and checks just the plan it returns, replayed through this
    function.
    """
    removes = frozenset(removes)
    adds = frozenset(adds)
    if not removes <= state.facts:
        raise InvariantViolation(f"removes not in state: {removes - state.facts}")
    if adds & (state.facts - removes):
        raise InvariantViolation(f"adds already present: {adds & state.facts}")
    for f in sorted(adds):  # sorted: the first bad fact named is fixed
        _check_fact(world, f)
    result = WorldState((state.facts - removes) | adds, state.inventory_limit)
    _check_delta(world, result, removes, adds)
    return result


def _check_fact(world: WorldDef, f: Fact) -> None:
    """`validate_state`'s rules for a single fact."""
    if f.predicate in ("at", "in", "on"):
        if len(f.args) != 2:
            raise InvariantViolation(f"{f} must have 2 args")
        if f.predicate in ("in", "on") and not world.is_takeable(f.args[0]):
            raise InvariantViolation(f"{f}: {f.args[0]} is not takeable")
    elif f.predicate in ("open", "closed") or f.predicate in world.state_predicates:
        if len(f.args) != 1:
            raise InvariantViolation(f"{f} must have 1 arg")
        if f.predicate in ("open", "closed") and not world.is_container(f.args[0]):
            raise InvariantViolation(f"{f}: not a container")
    else:
        raise InvariantViolation(f"unknown predicate in {f}")


def _check_delta(world: WorldDef, state: WorldState,
                 removes: frozenset[Fact], adds: frozenset[Fact]) -> None:
    """`validate_state`'s rules that a delta can break, checked on the
    subjects it touches; `state` is the result of the delta."""
    placed: dict[str, int] = {}  # change in each subject's location facts
    stateful = set()
    carried_changed = False
    for sign, delta in ((-1, removes), (1, adds)):
        for f in delta:
            if f.predicate in ("at", "in", "on"):
                who, where = f.args
                carried_changed |= f.predicate == "in" and where == INVENTORY
                if not (world.is_takeable(who)
                        or who == PLAYER and f.predicate == "at"):
                    continue
                if sign > 0 and not _valid_place(world, f):
                    raise InvariantViolation(f"{f}: not a valid location")
                placed[who] = placed.get(who, 0) + sign
            elif len(f.args) == 1 and f.args[0] in world.state_groups:
                stateful.add(f.args[0])
    for who, change in placed.items():
        if change:
            raise InvariantViolation(f"{who} has {1 + change} location facts")
    for eid in stateful:
        _check_state_group(world, state, eid)
    if carried_changed:
        _check_inventory(state)


def _valid_place(world: WorldDef, place: Fact) -> bool:
    """An ``at`` fact names a room, an ``on`` fact a support and an ``in``
    fact a container or the inventory."""
    predicate, (_, where) = place
    if predicate == "at":
        return where in world.rooms
    if predicate == "on":
        return world.is_support(where)
    return where == INVENTORY or world.is_container(where)


def _check_state_group(world: WorldDef, state: WorldState, eid: str) -> None:
    """The entity holds at most one state of its group (containers: exactly
    one of open/closed), and one if the group has an initial state."""
    group = world.state_groups[eid]
    held = [s for s in group.states if Fact(s, (eid,)) in state.facts]
    if len(held) > 1:
        raise InvariantViolation(f"{eid} holds several states: {held}")
    if group.initial is not None and not held:
        raise InvariantViolation(f"{eid} lost its state fact")


def _check_inventory(state: WorldState) -> None:
    """The inventory holds no more than the limit."""
    limit = state.inventory_limit
    if limit is not None and len(state.inventory) > limit:
        raise InvariantViolation("inventory over limit")


def state_facts_of(world: WorldDef, state: WorldState, entity: str) -> list[Fact]:
    group = world.state_groups.get(entity)
    if group is None:
        return []
    # a lookup per candidate state fact, not a scan of the state's facts
    return sorted(f for p in group.states
                  if (f := Fact(p, (entity,))) in state.facts)


def perceivable_when(room: str,
                     places: Iterable[Fact]) -> list[tuple[Fact, ...]]:
    """`WorldState.perceivable`'s rule in fact form: with the player in
    `room`, an entity whose location facts may be `places` is perceivable
    when all facts of one of these sets hold, one set for each place that
    can put it here."""
    alternatives = []
    for place in places:
        predicate, (_, holder) = place
        if holder == INVENTORY or predicate == "at" and holder == room:
            alternatives.append((place,))
        elif predicate == "on":
            alternatives.append((place, fact("at", holder, room)))
        elif predicate == "in":
            alternatives.append((place, fact("at", holder, room),
                                 fact("open", holder)))
    return alternatives


def visible_facts(world: WorldDef, state: WorldState) -> frozenset[Fact]:
    """All facts observable from the player's room: the player's location,
    the room's passages as ``connects`` facts, and each perceivable
    entity's location fact and open/closed or custom state facts. Closed
    containers hide their contents."""
    room = state.player_room
    located = state.perceivable
    out = {fact("at", PLAYER, room), *located.values()}
    for other in world.exits[room]:
        out.add(fact(CONNECTS, room, other))
    for eid in located:
        out.update(state_facts_of(world, state, eid))
    return frozenset(out)


def check_goals(state: WorldState, goals: Iterable[GoalCondition]) -> set[GoalCondition]:
    """Goals whose condition fact holds in the state (pure final-state check)."""
    return {g for g in goals if g.fact in state.facts}


def state_to_json(world: WorldDef, state: WorldState) -> dict:
    """Canonical JSON form: the state's facts and the world's passages as
    ``connects`` facts, sorted, in a stable key order."""
    passages = [Fact(CONNECTS, (room, other))
                for room, others in world.exits.items() for other in others]
    return {
        "facts": [str(f) for f in sorted([*state.facts, *passages])],
        "player_room": state.player_room,
        "inventory": list(state.inventory),
        "inventory_limit": state.inventory_limit,
    }


@cache
def load_data(name: str):
    """A bundled data file, read once per process and shared (callers must
    not mutate it): parsed JSON for ``*.json``, text otherwise."""
    text = resources.files("ifbench.data").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text) if name.endswith(".json") else text


@cache
def load_room_catalogue() -> dict[str, RoomDef]:
    rooms = {}
    for row in load_data("rooms.json")["rooms"]:
        rooms[row["id"]] = RoomDef(row["id"], row["noun"],
                                   frozenset(row["allowed_adjacent"]))
    for rid, room in rooms.items():
        for other in room.allowed_adjacent:
            if rid not in rooms[other].allowed_adjacent:
                raise ValueError(f"asymmetric adjacency {rid}/{other}")
    return rooms


@cache
def load_entity_catalogue() -> dict[str, EntityDef]:
    entities = {}
    rooms = load_room_catalogue()
    for row in load_data("entities.json")["entities"]:
        ent = EntityDef(row["id"], row["noun"], frozenset(row["traits"]),
                        frozenset(row["allowed_rooms"]))
        if not ent.allowed_rooms <= set(rooms):
            raise ValueError(f"{ent.id}: unknown allowed room")
        entities[ent.id] = ent
    return entities
