"""World model: typed entity/room registry and the mutable fact store.

World state is a set of grounded predicate tuples. Mutable predicates are
``at``, ``in``, ``on`` plus per-entity state groups (``open``/``closed`` for
containers, custom unary states for stateful objects). Room connectivity is
stored as symmetric ``connects`` facts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Iterable, Mapping, NamedTuple

PLAYER = "player"
INVENTORY = "inventory"
CONNECTS = "connects"

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
    m = _FACT_RE.match(text.strip())
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


@dataclass(frozen=True)
class StateGroup:
    """Mutually exclusive unary states of one entity, e.g. open/closed."""

    entity: str
    states: tuple[str, ...]
    initial: str | None  # None: entity may start with no state fact


@dataclass(frozen=True)
class GoalCondition:
    kind: str  # "placement" | "entity-state"
    fact: Fact


@dataclass(frozen=True)
class WorldDef:
    """Immutable registry an episode plays in: entities, rooms, state groups."""

    entities: Mapping[str, EntityDef]
    rooms: Mapping[str, RoomDef]
    state_groups: Mapping[str, StateGroup]

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

    def state_predicates(self) -> frozenset[str]:
        preds = set()
        for group in self.state_groups.values():
            preds.update(group.states)
        return frozenset(preds)


@dataclass(frozen=True)
class WorldState:
    facts: frozenset[Fact]
    player_room: str
    inventory: tuple[str, ...]  # insertion order, for deterministic feedback
    inventory_limit: int | None = None


@dataclass(frozen=True)
class Observation:
    text: str
    revealed_facts: frozenset[Fact]


def initial_state(world: WorldDef, facts: Iterable[Fact],
                  inventory_limit: int | None = None) -> WorldState:
    """Build and validate a state from an ordered fact list."""
    ordered = list(facts)
    player_room = None
    inventory = []
    for f in ordered:
        _check_fact(world, f)  # before its arguments are read
        if f.predicate == "at" and f.args[0] == PLAYER:
            player_room = f.args[1]
        if f.predicate == "in" and f.args[1] == INVENTORY:
            inventory.append(f.args[0])
    if player_room is None:
        raise InvariantViolation("no at(player, _) fact")
    state = WorldState(frozenset(ordered), player_room, tuple(inventory),
                       inventory_limit)
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
    if player_at[0].args[1] != state.player_room:
        raise InvariantViolation("player_room does not mirror at(player, _)")
    if state.player_room not in world.rooms:
        raise InvariantViolation(f"unknown room {state.player_room}")

    # every takeable entity has exactly one location fact
    for eid, ent in world.entities.items():
        if "takeable" not in ent.traits:
            continue
        locs = []
        for f in state.facts:
            if f.predicate == "at" and f.args[0] == eid:
                if f.args[1] not in world.rooms:
                    raise InvariantViolation(f"{f}: not a room")
                locs.append(f)
            elif f.predicate == "on" and f.args[0] == eid:
                if not world.is_support(f.args[1]):
                    raise InvariantViolation(f"{f}: not a support")
                locs.append(f)
            elif f.predicate == "in" and f.args[0] == eid:
                if f.args[1] != INVENTORY and not world.is_container(f.args[1]):
                    raise InvariantViolation(f"{f}: not a container")
                locs.append(f)
        if len(locs) != 1:
            raise InvariantViolation(f"{eid} has {len(locs)} location facts")

    # state-group exclusivity (containers: exactly one of open/closed)
    for eid, group in world.state_groups.items():
        held = [f for f in state.facts
                if f.predicate in group.states and f.args == (eid,)]
        if len(held) > 1:
            raise InvariantViolation(f"{eid} holds several states: {held}")
        if group.initial is not None and not held:
            raise InvariantViolation(f"{eid} lost its state fact")

    # inventory mirror and limit
    carried = {f.args[0] for f in state.facts
               if f.predicate == "in" and f.args[1] == INVENTORY}
    if carried != set(state.inventory):
        raise InvariantViolation("inventory does not mirror in(_, inventory)")
    if state.inventory_limit is not None and len(carried) > state.inventory_limit:
        raise InvariantViolation("inventory over limit")

    # room connectivity: symmetric and connected
    edges = {f.args for f in state.facts if f.predicate == CONNECTS}
    for a, b in edges:
        if a not in world.rooms or b not in world.rooms:
            raise InvariantViolation(f"connects({a},{b}): unknown room")
        if (b, a) not in edges:
            raise InvariantViolation(f"connects({a},{b}) lacks mirror")
    if len(world.rooms) > 1:
        seen = {next(iter(sorted(world.rooms)))}
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for a, b in edges:
                if a == cur and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if seen != set(world.rooms):
            raise InvariantViolation("room graph is not connected")


def apply_delta(world: WorldDef, state: WorldState,
                removes: Iterable[Fact], adds: Iterable[Fact]) -> WorldState:
    """Return the state with `removes` taken out and `adds` put in.

    `state` must satisfy every invariant of `validate_state`, as each state
    built by `initial_state`, `state_from_json` or this function does. The
    result is therefore checked only where the delta lands:

    - each added fact has a known predicate and the right arity, and
      ``open``/``closed`` hold only of containers;
    - the player, if the delta moves it, and each takeable whose location
      facts it touches keep exactly one location fact, and each added one
      points at a room, a support, a container or the inventory;
    - each entity whose state group it touches holds at most one state, and
      one if the group has an initial state;
    - if it touches ``in(_, inventory)``, the inventory mirrors those facts
      and stays within the limit.

    A delta that touches ``connects`` gets the full `validate_state`, which
    also checks that the room graph is symmetric and connected.

    Raises InvariantViolation when the delta does not fit the state or the
    result breaks an invariant; both signal a buggy action definition.
    """
    removes = frozenset(removes)
    adds = frozenset(adds)
    if not removes <= state.facts:
        raise InvariantViolation(f"removes not in state: {removes - state.facts}")
    if adds & (state.facts - removes):
        raise InvariantViolation(f"adds already present: {adds & state.facts}")
    for f in adds:
        _check_fact(world, f)

    facts = (state.facts - removes) | adds
    player_room = state.player_room
    inventory = list(state.inventory)
    for f in removes:
        if f.predicate == "in" and f.args[1] == INVENTORY:
            inventory.remove(f.args[0])
    for f in sorted(adds):
        if f.predicate == "in" and f.args[1] == INVENTORY:
            inventory.append(f.args[0])
        if f.predicate == "at" and f.args[0] == PLAYER:
            player_room = f.args[1]
    result = WorldState(facts, player_room, tuple(inventory),
                        state.inventory_limit)
    _check_delta(world, result, removes, adds)
    return result


def _check_fact(world: WorldDef, f: Fact) -> None:
    """`validate_state`'s rules for a single fact."""
    if f.predicate in ("at", "in", "on", CONNECTS):
        if len(f.args) != 2:
            raise InvariantViolation(f"{f} must have 2 args")
    elif f.predicate in ("open", "closed") or f.predicate in world.state_predicates():
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
                if f.predicate == "at":
                    valid = where in world.rooms
                elif f.predicate == "on":
                    valid = world.is_support(where)
                else:
                    valid = where == INVENTORY or world.is_container(where)
                if sign > 0 and not valid:
                    raise InvariantViolation(f"{f}: not a valid location")
                placed[who] = placed.get(who, 0) + sign
            elif f.predicate == CONNECTS:
                validate_state(world, state)  # symmetry and connectivity
                return
            elif len(f.args) == 1 and f.args[0] in world.state_groups:
                stateful.add(f.args[0])
    for who, change in placed.items():
        if change:
            raise InvariantViolation(f"{who} has {1 + change} location facts")
    for eid in stateful:
        group = world.state_groups[eid]
        held = {s for s in group.states if Fact(s, (eid,)) in state.facts}
        if len(held) > 1:
            raise InvariantViolation(f"{eid} holds several states: {held}")
        if group.initial is not None and not held:
            raise InvariantViolation(f"{eid} lost its state fact")
    if carried_changed:
        carried = {f.args[0] for f in state.facts
                   if f.predicate == "in" and f.args[1] == INVENTORY}
        if carried != set(state.inventory):
            raise InvariantViolation("inventory does not mirror in(_, inventory)")
        if state.inventory_limit is not None and len(carried) > state.inventory_limit:
            raise InvariantViolation("inventory over limit")


def connections_of(state: WorldState, room: str) -> list[str]:
    return sorted(f.args[1] for f in state.facts
                  if f.predicate == CONNECTS and f.args[0] == room)


def entities_at(world: WorldDef, state: WorldState, room: str) -> list[str]:
    return sorted(f.args[0] for f in state.facts
                  if f.predicate == "at" and f.args[1] == room
                  and f.args[0] != PLAYER)


def contents_on(state: WorldState, support: str) -> list[str]:
    return sorted(f.args[0] for f in state.facts
                  if f.predicate == "on" and f.args[1] == support)


def contents_in(state: WorldState, container: str) -> list[str]:
    return sorted(f.args[0] for f in state.facts
                  if f.predicate == "in" and f.args[1] == container)


def state_facts_of(world: WorldDef, state: WorldState, entity: str) -> list[Fact]:
    group = world.state_groups.get(entity)
    preds = set(group.states) if group else set()
    if world.is_container(entity):
        preds |= {"open", "closed"}
    return sorted(f for f in state.facts
                  if f.args == (entity,) and f.predicate in preds)


def _perceivable(state: WorldState) -> dict[str, Fact]:
    """Each entity the player can perceive, mapped to the location fact that
    places it in the player's room, on or (if open) in something there, or
    in the inventory. No holder's traits are looked up: ``on`` targets are
    supports and ``in`` targets containers or the inventory, as
    `validate_state` and `apply_delta` enforce for takeables (the only
    entities ever placed on or in another)."""
    room = state.player_room
    here = {}
    held = []  # the on and in facts, in fact order
    for f in state.facts:
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
                f.predicate == "on" or fact("open", holder) in state.facts):
            found[f.args[0]] = f
    return found


class StateView:
    """One state as compiled action steps read it. What the player can
    perceive (`_perceivable`) and where each subject is are each worked out
    at most once per view, and only when a step asks."""

    __slots__ = ("state", "facts", "room", "_perceivable", "_locations")

    def __init__(self, state: WorldState):
        self.state = state
        self.facts = state.facts
        self.room = state.player_room
        self._perceivable: dict[str, Fact] | None = None
        self._locations: dict[str, Fact] | None = None

    @property
    def perceivable(self) -> dict[str, Fact]:
        if self._perceivable is None:
            self._perceivable = _perceivable(self.state)
        return self._perceivable

    def location_of(self, subject: str) -> Fact:
        """The first ``at``/``on``/``in`` fact about `subject` in the
        state's fact order; ValueError if there is none."""
        if self._locations is None:
            self._locations = {}
            for f in self.facts:
                if f.predicate in ("at", "on", "in"):
                    self._locations.setdefault(f.args[0], f)
        try:
            return self._locations[subject]
        except KeyError:
            raise ValueError(f"{subject} has no location fact") from None


def visible_entities(world: WorldDef, state: WorldState) -> list[str]:
    """Entities the player can currently perceive, including carried ones."""
    return sorted(_perceivable(state))


def visible_facts(world: WorldDef, state: WorldState,
                  view: StateView | None = None) -> frozenset[Fact]:
    """All facts observable from the player's room: the player's location,
    the room's connections, and each perceivable entity's location fact and
    open/closed or custom state facts. Closed containers hide their contents.
    A `view` of `state`, if given, supplies the perceivable entities, so a
    state whose view a step has already read is not walked again."""
    room = state.player_room
    located = _perceivable(state) if view is None else view.perceivable
    out = {fact("at", PLAYER, room), *located.values()}
    for other in connections_of(state, room):
        out.add(fact(CONNECTS, room, other))
    for eid in located:
        out.update(state_facts_of(world, state, eid))
    return frozenset(out)


def check_goals(state: WorldState, goals: Iterable[GoalCondition]) -> set[GoalCondition]:
    """Goals whose condition fact holds in the state (pure final-state check)."""
    return {g for g in goals if g.fact in state.facts}


def state_to_json(state: WorldState) -> dict:
    """Canonical JSON form: facts sorted, stable key order."""
    return {
        "facts": [str(f) for f in sorted(state.facts)],
        "player_room": state.player_room,
        "inventory": list(state.inventory),
        "inventory_limit": state.inventory_limit,
    }


def state_from_json(world: WorldDef, data: dict) -> WorldState:
    facts = [parse_fact(s) for s in data["facts"]]
    state = WorldState(frozenset(facts), data["player_room"],
                       tuple(data["inventory"]), data.get("inventory_limit"))
    validate_state(world, state)
    return state


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
