"""Episode definitions: rooms, entities, goals, lexicon, prompt, the
pre-exploration walk and the optimal plan, plus their JSON serialization and
DOT graph export. Loading reads each `extra_actions` row with
`grammar.action_from_json`, the reader of the bundled verbs too, shares each
loaded value that equals one loaded before (`_shared`), and keeps what its
checks compute for the episodes: the instance's one engine, the start
state, what the walk showed and the plan's commands."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from .grammar import (ActionDef, GroundedAction, Lexicon, action_from_json,
                      load_standard_actions, staple_verbs)
from .interpreter import Engine
from .world import (ENGINE_PREDICATES, INVENTORY, PLAYER, EntityDef, Fact,
                    GoalCondition, InvariantViolation, RoomDef, StateGroup,
                    WorldDef, WorldState, initial_state, parse_fact)

SCHEMA_VERSION = 2
PRNG_NAME = "numpy-PCG64"

# the experiment families, in the order that seeds them (see generate.py)
FAMILIES = (
    "basic-easy", "basic-hard",
    "limit-easy", "limit-hard",
    "preexplore-easy", "preexplore-hard",
    "synthetic-easy", "synthetic-medium", "synthetic-hard",
)
INSTANCES_PER_FAMILY = 16
GOAL_KINDS = ("placement", "entity-state")
_FILE_TOKEN = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")
# One object per distinct loaded value (hash-consing): a suite repeats the
# same rooms, entities and facts from instance to instance. Keyed on the type
# too, as a `Fact` equals the plain tuple of its items. The values are
# immutable and the table lasts as long as the process; two threads loading
# at once can at worst leave two equal objects unshared.
_SHARED: dict = {}


def _shared(value):
    try:
        return _SHARED.setdefault((type(value), value), value)
    except TypeError:  # unhashable: left as it is, for a later check to reject
        return value


@dataclass(eq=False)
class Instance:
    id: str
    family: str
    rooms: tuple[RoomDef, ...]
    connections: tuple[tuple[str, str], ...]  # canonical (a < b) pairs
    entities: tuple[EntityDef, ...]
    state_groups: tuple[StateGroup, ...]
    initial_facts: tuple[Fact, ...]
    goals: tuple[GoalCondition, ...]
    inventory_limit: int | None
    lexicon: Lexicon | None
    base_verbs: tuple[str, ...]  # bundled actions included in this instance
    extra_actions: tuple[ActionDef, ...]
    preexploration: tuple[tuple[str, str], ...] | None
    prompt: str
    optimal_plan: tuple[GroundedAction, ...] | None  # ids; ends with `done`
    seed_path: tuple[int, ...] = ()

    @property
    def optimal_length(self) -> int | None:
        return None if self.optimal_plan is None else len(self.optimal_plan)

    @property
    def actions(self) -> tuple[ActionDef, ...]:
        # not cached: the engine's parser keeps them, by verb
        standard = {a.verb: a for a in load_standard_actions()}
        return tuple(standard[v] for v in self.base_verbs) + self.extra_actions

    @cached_property
    def engine(self) -> Engine:
        """The instance's one engine, which builds its world and parser;
        `dataclasses.replace` starts a new one."""
        return Engine(self)

    @property
    def world(self) -> WorldDef:
        return self.engine.world

    def start_state(self) -> WorldState:
        """The state an episode starts in, built and validated once."""
        return self._start[0]

    @property
    def preexploration_facts(self) -> tuple[Fact, ...]:
        """The facts in sight after each pre-exploration step, sorted."""
        return self._start[1]

    @cached_property
    def _start(self) -> tuple[WorldState, tuple[Fact, ...]]:
        """The start state and `preexploration_facts`, in one attribute to
        keep loaded instances small (`test_loaded_suite_memory`); ValueError
        naming the step unless the walk plays with its stored feedback back
        to the start. `dataclasses.replace` starts a new cache."""
        start = initial_state(self.world, self.initial_facts, self.inventory_limit)
        walk = self.preexploration or ()
        try:
            end, records = self.engine.walk(start, [command for command, _ in walk])
            for n, ((command, feedback), record) in enumerate(zip(walk, records)):
                if record.feedback != feedback:
                    raise ValueError(f"step {n} {command!r}: the engine's feedback "
                                     f"is {record.feedback!r}, not {feedback!r}")
            if end.facts != start.facts:
                raise ValueError(f"step {n} {command!r} ends the walk away from "
                                 "its start")
        except ValueError as exc:
            raise ValueError(f"field 'preexploration': {exc}") from exc
        seen = frozenset().union(*(r.revealed_facts for r in records))
        return start, tuple(sorted(map(_shared, seen)))

    @cached_property
    def plan_commands(self) -> tuple[str, ...]:
        """The optimal plan's commands as `Parser.render` writes and reads
        them back; ValueError naming a step that does not read back."""
        commands = []
        for n, step in enumerate(self.optimal_plan or ()):
            try:
                commands.append(_shared(self.engine.parser.render(step)))
            except ValueError as exc:
                raise ValueError(f"optimal_plan step {n}: {exc}") from exc
        return tuple(commands)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "family": self.family,
            "seed_path": list(self.seed_path),
            "rooms": [{"id": r.id, "noun": r.noun,
                       "allowed_adjacent": sorted(r.allowed_adjacent)}
                      for r in self.rooms],
            "connections": [list(c) for c in self.connections],
            "entities": [{"id": e.id, "noun": e.noun,
                          "traits": sorted(e.traits),
                          "allowed_rooms": sorted(e.allowed_rooms)}
                         for e in self.entities],
            "state_groups": [{"entity": g.entity, "states": list(g.states),
                              "initial": g.initial}
                             for g in self.state_groups],
            "initial_facts": [str(f) for f in self.initial_facts],
            "goals": [{"kind": g.kind, "fact": str(g.fact)} for g in self.goals],
            "inventory_limit": self.inventory_limit,
            "lexicon": self.lexicon.to_json() if self.lexicon else None,
            "base_verbs": list(self.base_verbs),
            "extra_actions": [a.to_json() for a in self.extra_actions],
            "preexploration": ([list(p) for p in self.preexploration]
                               if self.preexploration else None),
            "prompt": self.prompt,
            "optimal_length": self.optimal_length,
            "optimal_plan": (None if self.optimal_plan is None else
                             [[a.action, [list(b) for b in a.bindings]]
                              for a in self.optimal_plan]),
        }

    @staticmethod
    def from_json(data: dict) -> "Instance":
        """Inverse of `to_json`: KeyError for a missing field, ValueError
        naming the field whose value is malformed."""
        def read(name, convert, optional=False):
            value = data.get(name) if optional else data[name]
            try:
                return convert(value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"field {name!r}: {exc}") from exc

        rooms = read("rooms", lambda rows: _ids(tuple(_shared(
            RoomDef(r["id"], r["noun"],
                    frozenset(_strings(r["allowed_adjacent"]))))
            for r in rows), "id {!r} names two rooms"))
        entities = read("entities", lambda rows: _entities(rows, rooms))
        groups = read("state_groups", lambda rows: _state_groups(rows, entities))
        # a fact effect may name a state of a group and any id
        unary = {"open", "closed"}.union(*(g.states for g in groups))
        ids = [r.id for r in rooms] + [e.id for e in entities]
        base_verbs = read("base_verbs", _base_verbs)
        # a parser serves each verb once
        extra_actions = read("extra_actions", lambda rows: _distinct(tuple(
            action_from_json(row, unary, ids) for row in rows),
            "verb {!r} is a base verb or an earlier action's",
            attrgetter("verb"), base_verbs))
        verbs = base_verbs + tuple(a.verb for a in extra_actions)
        return Instance(
            id=read("id", _file_token),
            family=read("family", _string),
            rooms=rooms,
            connections=read("connections", lambda pairs: tuple(
                _shared(_connection(c)) for c in pairs)),
            entities=entities,
            state_groups=groups,
            initial_facts=read("initial_facts", lambda facts: tuple(
                _shared(parse_fact(s)) for s in facts)),
            goals=read("goals", _goals),
            inventory_limit=read("inventory_limit", _limit),
            lexicon=read("lexicon", lambda lex: _lexicon(lex, verbs),
                         optional=True),
            base_verbs=base_verbs,
            extra_actions=extra_actions,
            preexploration=read("preexploration", lambda pairs: (
                tuple(_pair(p) for p in pairs) if pairs else None),
                optional=True),
            prompt=read("prompt", _string),
            optimal_plan=read("optimal_plan", lambda plan: (
                None if plan is None else tuple(
                    _plan_step(n, step) for n, step in enumerate(plan)))),
            seed_path=(read("seed_path", _seed_path)
                       if "seed_path" in data else ()),
        )


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _strings(value) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; TypeError for anything else, such
    as one string, which `tuple` would split into its letters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{value!r} is not a list of strings")
    return tuple(value)


def _distinct(rows: tuple, fault: str, key=attrgetter("id"),
              taken=()) -> tuple:
    """`rows`, whose `key`s must be strings; ValueError `fault`, formatted
    with the key, if one is in `taken` or is the key of an earlier row."""
    seen = set(taken)
    for row in rows:
        name = _string(key(row))
        if name in seen:
            raise ValueError(fault.format(name))
        seen.add(name)
    return rows


def _ids(rows: tuple, fault: str) -> tuple:
    """Rooms or entities, checked by `_distinct`; ValueError for one whose
    id is `player` or `inventory`, which facts use for the player and for
    what it carries."""
    for row in _distinct(rows, fault):
        if row.id in (PLAYER, INVENTORY):
            raise ValueError(f"id {row.id!r} is reserved for the {row.id}")
    return rows


def _entities(rows, rooms: tuple[RoomDef, ...]) -> tuple[EntityDef, ...]:
    entities = _ids(tuple(_shared(
        EntityDef(e["id"], e["noun"], frozenset(_strings(e["traits"])),
                  frozenset(_strings(e["allowed_rooms"]))))
        for e in rows), "id {!r} names two entities")
    _distinct(rooms + entities, "id {!r} names a room and an entity")
    return entities


def _state_groups(rows, entities: tuple[EntityDef, ...]) -> tuple[StateGroup, ...]:
    groups = _distinct(tuple(_shared(
        StateGroup(g["entity"], _strings(g["states"]), g["initial"]))
        for g in rows), "entity {!r} has two state groups",
        attrgetter("entity"))
    ids = {e.id for e in entities}
    containers = {e.id for e in entities if "container" in e.traits}
    for group in groups:
        if group.entity not in ids:
            raise ValueError(f"{group.entity!r} has a state group but is no "
                             "entity")
        # a state is a unary predicate; open/closed only as a container's pair
        reserved = ENGINE_PREDICATES
        if group.entity in containers and set(group.states) == {"open", "closed"}:
            reserved -= {"open", "closed"}
        _distinct(group.states, f"state {{!r}} of {group.entity!r} is a "
                  "reserved predicate or listed twice", str, reserved)
    return groups


def _base_verbs(value) -> tuple[str, ...]:
    verbs = _distinct(_strings(value), "verb {!r} is listed twice", str)
    for verb in verbs:
        if verb not in staple_verbs():
            raise ValueError(f"{verb!r} is not a bundled verb")
    return verbs


def _lexicon(data, verbs: tuple[str, ...]) -> Lexicon | None:
    """A lexicon, unless it writes two of the instance's verbs alike."""
    if not data:
        return None
    lexicon = Lexicon.from_json(data)
    _distinct(tuple(lexicon.verb(v) for v in verbs),
              "verbs: two verbs are written {!r}", str)
    return lexicon


def _connection(value) -> tuple[str, str]:
    pair = _strings(value)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError(f"{value!r} is not a pair of two different rooms")
    return pair


def _pair(value) -> tuple[str, str]:
    """A pre-exploration entry: a [command, feedback] pair of strings."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, str) for v in value)):
        raise TypeError(f"{value!r} is not a [command, feedback] pair of "
                        "strings")
    return tuple(value)


def _seed_path(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
            type(v) is int and v >= 0 for v in value):
        raise ValueError(f"{value!r} is not a list of non-negative integers")
    return tuple(value)


def _goals(rows) -> tuple[GoalCondition, ...]:
    """A JSON goal list: one or more goals, each a placement or an entity
    state; ValueError for any other kind or an empty list."""
    goals = tuple(_shared(GoalCondition(g["kind"], _shared(parse_fact(g["fact"]))))
                  for g in rows)
    if not goals:
        raise ValueError("no goals")
    for goal in goals:
        if goal.kind not in GOAL_KINDS:
            raise ValueError(f"goal kind {goal.kind!r} is not one of "
                             f"{', '.join(GOAL_KINDS)}")
    return goals


def _plan_step(n: int, step) -> GroundedAction:
    """Step `n` of a JSON plan, ``[verb, [[param, id], ...]]``; TypeError
    unless its verb is a string and each binding a [param, id] pair of
    strings, quoting the step as a grounded action if its bindings are
    lists of strings, else as the file holds it."""
    verb, bindings = step
    try:
        if not isinstance(bindings, list):
            raise TypeError
        step = GroundedAction(verb, tuple(_strings(b) for b in bindings))
    except TypeError:
        pass
    if not (isinstance(step, GroundedAction) and isinstance(verb, str)
            and all(len(b) == 2 for b in step.bindings)):
        raise TypeError(f"optimal_plan step {n} is not a verb with [param, id] "
                        f"pairs of strings: {step!r}")
    return _shared(step)


def _file_token(value) -> str:
    """An instance id, which names the files of its episodes and graph:
    letters, digits and ``_.-``, not starting with ``.``."""
    if not isinstance(value, str) or not _FILE_TOKEN.fullmatch(value):
        raise ValueError(f"{value!r} is not letters, digits and _.- "
                         "that do not start with .")
    return value


def _limit(value) -> int | None:
    """A JSON inventory limit: null or a positive integer, not a bool."""
    if value is not None and not (type(value) is int and value > 0):
        raise ValueError(f"{value!r} is not null or a positive integer")
    return value


def _check_plan(instance: Instance, optimal_length) -> None:
    """Raise ValueError unless the stored plan (steps as `_plan_step`
    reads them) ends in `done`, has `optimal_length` steps, and each step's
    command reads back (`Instance.plan_commands`)."""
    plan = instance.optimal_plan
    if not plan or plan[-1].action != "done":
        raise ValueError("optimal_plan is missing, empty or does not end in done")
    instance.plan_commands  # raises on a step that does not read back
    if instance.optimal_length != optimal_length:
        raise ValueError(f"optimal_plan has {instance.optimal_length} steps, "
                         f"optimal_length is {optimal_length}")


def save_instances(instances: list[Instance], path: str | Path,
                   base_seed: int | None = None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "prng": PRNG_NAME,
        "base_seed": base_seed,
        "family": instances[0].family if instances else None,
        "count": len(instances),
        "instances": [inst.to_json() for inst in instances],
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_instances(path: str | Path) -> list[Instance]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # such as a missing file
        raise ValueError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: schema version {version}, expected "
                         f"{SCHEMA_VERSION}; regenerate it with `ifbench generate`")
    if not isinstance(payload.get("instances"), list):
        raise ValueError(f"{path}: field 'instances' is missing or not a list")
    instances = []
    for index, row in enumerate(payload["instances"]):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: instance {index} is not a JSON object")
        where = f"{path}: instance {index} ({row.get('id', 'no id')})"
        try:
            instance = Instance.from_json(row)
            instance.start_state()  # raises on a bad start state or walk
            _check_plan(instance, row["optimal_length"])
        except KeyError as exc:
            raise ValueError(f"{where} lacks field {exc.args[0]!r}") from exc
        except (TypeError, ValueError, InvariantViolation) as exc:
            raise ValueError(f"{where}: {exc}") from exc
        instances.append(instance)
    return instances


def instance_to_dot(inst: Instance) -> str:
    """Graph view of the initial world: house-shaped rooms, boxed receptacles,
    round movables, dashed goal edges labelled with the target preposition."""
    parser = inst.engine.parser
    world, label = parser.world, parser.surface_of
    lines = [f'digraph "{inst.id}" {{']
    for room in sorted(world.rooms):
        lines.append(f'  "{room}" [shape=house, label="{label(room)}"];')
    for eid in sorted(world.entities):
        shape = "box" if world.is_container(eid) or world.is_support(eid) else "ellipse"
        lines.append(f'  "{eid}" [shape={shape}, label="{label(eid)}"];')
    lines.append('  "player" [shape=diamond, label="player"];')
    for a in sorted(world.exits):
        for b in world.exits[a]:
            if a < b:
                lines.append(f'  "{a}" -> "{b}" [dir=both];')
    for f in sorted(inst.initial_facts):
        if f.predicate in ("at", "on", "in") and len(f.args) == 2:
            lines.append(f'  "{f.args[0]}" -> "{f.args[1]}" '
                         f'[label="{f.predicate}"];')
    for goal in inst.goals:
        if goal.kind == "placement":
            item, target = goal.fact.args
            lines.append(f'  "{item}" -> "{target}" '
                         f'[style=dashed, label="{goal.fact.predicate}"];')
        else:
            state = goal.fact.predicate
            entity = goal.fact.args[0]
            lines.append(f'  "goal_{entity}" [shape=ellipse, style=dashed, '
                         f'label="{parser.lexicon.adjective(state)}"];')
            lines.append(f'  "{entity}" -> "goal_{entity}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
