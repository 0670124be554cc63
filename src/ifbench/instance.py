"""Episode definitions: rooms, entities, goals, lexicon, prompt and the
optimal plan, plus their JSON serialization and DOT graph export."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .grammar import (ActionDef, GroundedAction, Lexicon, Parser,
                      action_from_json, build_parser, load_standard_actions)
from .world import (CONNECTS, EntityDef, Fact, GoalCondition,
                    InvariantViolation, RoomDef, StateGroup, WorldDef,
                    WorldState, fact, initial_state, parse_fact)

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

    @cached_property
    def actions(self) -> tuple[ActionDef, ...]:
        standard = {a.verb: a for a in load_standard_actions()}
        return tuple(standard[v] for v in self.base_verbs) + self.extra_actions

    @cached_property
    def world(self) -> WorldDef:
        return WorldDef(
            entities={e.id: e for e in self.entities},
            rooms={r.id: r for r in self.rooms},
            state_groups={g.entity: g for g in self.state_groups},
        )

    @cached_property
    def parser(self) -> Parser:
        nouns = {e.id: e.noun for e in self.entities}
        nouns.update({r.id: r.noun for r in self.rooms})
        return build_parser(self.actions, self.lexicon or Lexicon(), nouns)

    def start_state(self) -> WorldState:
        facts = list(self.initial_facts)
        for a, b in self.connections:
            facts.append(fact(CONNECTS, a, b))
            facts.append(fact(CONNECTS, b, a))
        return initial_state(self.world, facts, self.inventory_limit)

    @property
    def start_room(self) -> str:
        for f in self.initial_facts:
            if f.predicate == "at" and f.args[0] == "player":
                return f.args[1]
        raise ValueError("instance has no player placement")

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
        lex = Lexicon.from_json(data["lexicon"]) if data.get("lexicon") else None
        return Instance(
            id=data["id"],
            family=data["family"],
            rooms=tuple(RoomDef(r["id"], r["noun"],
                                frozenset(r["allowed_adjacent"]))
                        for r in data["rooms"]),
            connections=tuple(tuple(c) for c in data["connections"]),
            entities=tuple(EntityDef(e["id"], e["noun"], frozenset(e["traits"]),
                                     frozenset(e["allowed_rooms"]))
                           for e in data["entities"]),
            state_groups=tuple(StateGroup(g["entity"], tuple(g["states"]),
                                          g["initial"])
                               for g in data["state_groups"]),
            initial_facts=tuple(parse_fact(s) for s in data["initial_facts"]),
            goals=tuple(GoalCondition(g["kind"], parse_fact(g["fact"]))
                        for g in data["goals"]),
            inventory_limit=data["inventory_limit"],
            lexicon=lex,
            base_verbs=tuple(data["base_verbs"]),
            extra_actions=tuple(action_from_json(a)
                                for a in data["extra_actions"]),
            preexploration=(tuple(tuple(p) for p in data["preexploration"])
                            if data.get("preexploration") else None),
            prompt=data["prompt"],
            optimal_plan=(None if data["optimal_plan"] is None else tuple(
                GroundedAction(verb, tuple(map(tuple, binding)))
                for verb, binding in data["optimal_plan"])),
            seed_path=tuple(data.get("seed_path", ())),
        )


def _check_plan(instance: Instance, optimal_length) -> None:
    """Raise ValueError unless the stored plan ends in `done`, uses only the
    instance's verbs, parameters and ids, and has `optimal_length` steps."""
    plan = instance.optimal_plan
    if not plan or plan[-1].action != "done":
        raise ValueError("optimal_plan is missing, empty or does not end in done")
    actions = {a.verb: a for a in instance.actions}
    ids = instance.world.entities.keys() | instance.world.rooms.keys()
    for n, step in enumerate(plan):
        action = actions.get(step.action)
        if action is None or not all(
                name in {p.name for p in action.params} and ident in ids
                for name, ident in step.bindings):
            raise ValueError(f"optimal_plan step {n} names a verb, parameter "
                             f"or id the instance lacks: {step}")
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
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: schema version {version}, expected "
                         f"{SCHEMA_VERSION}; regenerate it with `ifbench generate`")
    if not isinstance(payload.get("instances"), list):
        raise ValueError(f"{path}: field 'instances' is missing or not a list")
    instances = []
    for index, row in enumerate(payload["instances"]):
        where = f"{path}: instance {index} ({row.get('id', 'no id')})"
        try:
            instance = Instance.from_json(row)
            instance.start_state()  # raises on an invalid start state
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
    world = inst.world
    lex = inst.lexicon or Lexicon()

    def label(ident: str) -> str:
        return lex.noun(world.noun_of(ident))

    lines = [f'digraph "{inst.id}" {{']
    for room in sorted(world.rooms):
        lines.append(f'  "{room}" [shape=house, label="{label(room)}"];')
    for eid in sorted(world.entities):
        shape = "box" if world.is_container(eid) or world.is_support(eid) else "ellipse"
        lines.append(f'  "{eid}" [shape={shape}, label="{label(eid)}"];')
    lines.append('  "player" [shape=diamond, label="player"];')
    for a, b in sorted(inst.connections):
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
                         f'label="{lex.adjective(state)}"];')
            lines.append(f'  "{entity}" -> "goal_{entity}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
