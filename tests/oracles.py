"""Independent test oracles: a per-fact visibility filter, the room and
examine descriptions built by their own walks over the facts, the uncompiled
precondition and effect code, the planner's search with every state checked,
the planner's candidates without its pruning, and a raw-string brute-force
optimal search driven through the public interpreter; ablated agents
(verb-blind, lexicon-blind, memoryless); plus helpers: a builder for
handcrafted micro instances, criterion 4's corpus of them, a
pre-exploration walk added to an instance, a scripted agent for a plan,
and a lexicon swap for generated instances."""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from itertools import product

import ifbench.planner as planner
from ifbench import (Engine, HeuristicAgent, Instance, ScriptedAgent,
                     generate_preexploration)
from ifbench.generate import _finalize_prompt, _standard_extras
from ifbench.grammar import (ActionDef, GroundedAction, Lexicon, build_parser,
                             staple_verbs)
from ifbench.planner import (PlanResult, SearchBudgetExceeded, Unsolvable,
                             _candidates, _groundings)
from ifbench.interpreter import _join, render_feedback
from ifbench.world import (INVENTORY, PLAYER, EntityDef, GoalCondition,
                           RoomDef, StateGroup, WorldDef, WorldState, Fact, apply_delta,
                           fact, parse_fact, visible_facts)


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

    # the passages are the world's: each room whose exits lead here
    keep = {fact("connects", state.player_room, other) for other in world.rooms
            if state.player_room in world.exits[other]}
    for f in state.facts:
        pred, args = f.predicate, f.args
        if pred == "at":
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


def reference_state_facts(world: WorldDef, state: WorldState,
                          entity: str) -> list[Fact]:
    """The entity's state facts (its group's states, and open/closed for a
    container), sorted, by a scan over all of the state's facts."""
    group = world.state_groups.get(entity)
    preds = set(group.states) if group else set()
    if world.is_container(entity):
        preds |= {"open", "closed"}
    return sorted(f for f in state.facts
                  if f.args == (entity,) and f.predicate in preds)


def reference_visible_entities(world: WorldDef,
                               state: WorldState) -> list[str]:
    """The entities whose location fact `reference_visible` keeps, sorted."""
    return sorted({f.args[0] for f in reference_visible(world, state)
                   if f.predicate in ("at", "on", "in")} - {PLAYER})


# -- the interpreter's descriptions before they read the perceivable map,
# kept (methods of Engine then, `self` now `engine`) with the fact walks they
# called, as the reference `room_description` and `entity_description` must
# agree with


def _entities_at(state: WorldState, room: str) -> list[str]:
    return sorted(f.args[0] for f in state.facts
                  if f.predicate == "at" and f.args[1] == room
                  and f.args[0] != PLAYER)


def _contents_on(state: WorldState, support: str) -> list[str]:
    return sorted(f.args[0] for f in state.facts
                  if f.predicate == "on" and f.args[1] == support)


def _contents_in(state: WorldState, container: str) -> list[str]:
    return sorted(f.args[0] for f in state.facts
                  if f.predicate == "in" and f.args[1] == container)


def reference_room_description(engine, state: WorldState) -> str:
    msg, surface = engine.messages, engine.parser.surface_of
    room = state.player_room
    parts = [render_feedback(msg["room_intro"], {"room": surface(room)})]
    here = _entities_at(state, room)
    if here:
        names = [surface(e) for e in here]
        key = "here_one" if len(names) == 1 else "here_many"
        parts.append(render_feedback(msg[key], {"items": _join(names)}))
    for eid in here:
        if engine.world.is_container(eid):
            if fact("open", eid) in state.facts:
                parts.append(render_feedback(
                    msg["container_open"], {"container": surface(eid)}))
                inside = _contents_in(state, eid)
                if inside:
                    parts.append(render_feedback(
                        msg["container_contents"],
                        {"items": _join([surface(e) for e in inside])}))
            else:
                parts.append(render_feedback(
                    msg["container_closed"],
                    {"container": surface(eid)}))
        elif engine.world.is_support(eid):
            on_top = _contents_on(state, eid)
            if on_top:
                parts.append(render_feedback(
                    msg["support_contents"],
                    {"support": surface(eid),
                     "items": _join([surface(e) for e in on_top])}))
    for eid in reference_visible_entities(engine.world, state):
        if eid in engine.world.state_groups:
            for f in reference_state_facts(engine.world, state, eid):
                if f.predicate not in ("open", "closed"):
                    parts.append(render_feedback(
                        msg["state_sentence"],
                        {"entity": surface(eid),
                         "state": engine.parser.lexicon.adjective(f.predicate)}))
    exits = [other for other in sorted(engine.world.rooms)
             if room in engine.world.exits[other]]
    if exits:
        key = "passage_one" if len(exits) == 1 else "passage_many"
        parts.append(render_feedback(
            msg[key], {"rooms": _join([surface(r) for r in exits])}))
    return " ".join(parts)


def reference_entity_description(engine, state: WorldState, ident: str) -> str:
    msg, surface = engine.messages, engine.parser.surface_of
    if ident == INVENTORY:
        if not state.inventory:
            return msg["inventory_empty"]
        names = [surface(e) for e in state.inventory]
        return render_feedback(msg["inventory_contents"],
                               {"items": _join(names)})
    name = surface(ident)
    if engine.world.is_container(ident):
        if fact("open", ident) in state.facts:
            inside = _contents_in(state, ident)
            tail = (render_feedback(
                msg["container_contents"],
                {"items": _join([surface(e) for e in inside])})
                if inside else msg["container_empty"])
            return render_feedback(msg["container_open"],
                                   {"container": name}) + " " + tail
        return render_feedback(msg["container_closed"], {"container": name})
    if engine.world.is_support(ident):
        on_top = _contents_on(state, ident)
        if on_top:
            return render_feedback(
                msg["support_contents"],
                {"support": name,
                 "items": _join([surface(e) for e in on_top])})
        return render_feedback(msg["support_empty"], {"support": name})
    for f in sorted(state.facts):
        if f.predicate == "in" and f.args[0] == ident:
            if f.args[1] == INVENTORY:
                return render_feedback(msg["examine_in_inventory"],
                                       {"entity": name})
            return render_feedback(
                msg["examine_in"],
                {"entity": name, "holder": surface(f.args[1])})
        if f.predicate == "on" and f.args[0] == ident:
            return render_feedback(
                msg["examine_on"],
                {"entity": name, "holder": surface(f.args[1])})
    states = reference_state_facts(engine.world, state, ident)
    if states:
        return render_feedback(
            msg["state_sentence"],
            {"entity": name,
             "state": engine.parser.lexicon.adjective(states[0].predicate)})
    for f in state.facts:
        if f.predicate == "at" and f.args[0] == ident:
            return render_feedback(msg["examine_at_room"], {"entity": name})
    # the old code's last fallback, whose message is gone: no entity the
    # player perceives lacks a location fact
    raise AssertionError(f"{ident} has no location fact")


# -- the interpreter's precondition and effect code before steps were
# compiled, kept verbatim (methods of Engine then, `self` now `engine`) as the
# reference the compiled steps must agree with


def _reference_accessible(engine, state: WorldState, ident: str) -> bool:
    """Entity can be manipulated from the player's room: carried,
    directly in the room, on a support here, or inside an open
    container here."""
    room = state.player_room
    if ident in state.inventory:
        return True
    if fact("at", ident, room) in state.facts:
        return True
    for f in state.facts:
        if f.args and f.args[0] == ident:
            if f.predicate == "on" and fact("at", f.args[1], room) in state.facts:
                return True
            if (f.predicate == "in" and f.args[1] != INVENTORY
                    and fact("at", f.args[1], room) in state.facts
                    and fact("open", f.args[1]) in state.facts):
                return True
    return False


def reference_preconditions(engine, state: WorldState, action: ActionDef,
                            grounded: GroundedAction) -> str | None:
    """First failing precondition's failure kind, or None when all hold."""
    for cond in action.preconditions:
        check = cond["check"]
        ident = grounded.get(cond["param"]) if "param" in cond else None
        if check == "accessible_here":
            ok = _reference_accessible(engine, state, ident)
        elif check == "visible_here":
            ok = (ident == INVENTORY or ident in reference_visible_entities(
                engine.world, state))
        elif check == "in_inventory":
            ok = ident in state.inventory
        elif check == "not_in_inventory":
            ok = ident not in state.inventory
        elif check == "inventory_space":
            ok = (state.inventory_limit is None
                  or len(state.inventory) < state.inventory_limit)
        elif check == "connected":
            ok = ident in engine.world.exits[state.player_room]
        elif check == "not_current_room":
            ok = ident != state.player_room
        elif check == "has_state":
            ok = fact(cond["state"], ident) in state.facts
        elif check == "not_has_state":
            ok = fact(cond["state"], ident) not in state.facts
        elif check == "open_if_container":
            ok = (not engine.world.is_container(ident)
                  or fact("open", ident) in state.facts)
        elif check == "is_entity":
            ok = ident == cond["entity"]
        elif check == "source_matches":
            source = grounded.get(cond.get("source", "source"))
            if source is None:
                ok = True
            elif source in engine.world.rooms:
                ok = fact("at", ident, source) in state.facts
            else:
                ok = (fact("on", ident, source) in state.facts
                      or fact("in", ident, source) in state.facts)
        else:
            raise ValueError(f"unknown precondition check {check!r}")
        if not ok:
            return cond["fail"]
    return None


def reference_effects(engine, state: WorldState, action: ActionDef,
                      grounded: GroundedAction
                      ) -> tuple[frozenset[Fact], frozenset[Fact]]:
    removes = frozenset(_reference_instantiate(engine, t, state, grounded)
                        for t in action.removes)
    adds = frozenset(_reference_instantiate(engine, t, state, grounded)
                     for t in action.adds)
    return removes, adds


def _reference_instantiate(engine, template: tuple[str, ...],
                           state: WorldState, grounded: GroundedAction) -> Fact:
    kind = template[0]
    if kind == "fact":
        args = tuple(_reference_resolve(a, grounded) for a in template[2:])
        return Fact(template[1], args)
    if kind == "location_of":
        item = _reference_resolve(template[1], grounded)
        for f in state.facts:
            if f.predicate in ("at", "on", "in") and f.args[0] == item:
                return f
        raise ValueError(f"{item} has no location fact")
    if kind == "placement":
        item = _reference_resolve(template[1], grounded)
        target = _reference_resolve(template[2], grounded)
        pred = "in" if engine.world.is_container(target) else "on"
        return Fact(pred, (item, target))
    if kind == "player_at":
        return fact("at", PLAYER, state.player_room)
    raise ValueError(f"unknown effect template {template!r}")


def _reference_resolve(name: str, grounded: GroundedAction) -> str:
    if name in (PLAYER, INVENTORY):
        return name
    bound = grounded.get(name)
    return bound if bound is not None else name


# -- the planner's search before it kept bare states: every new state is
# built by the checked `apply_delta` and keyed by its fact set


def unpruned_candidates(instance: Instance) -> list[GroundedAction]:
    """The planner's candidates without its pruning: every grounding of
    every action that changes facts, in (verb, bindings) order."""
    out = [grounded for action in instance.actions
           if action.removes or action.adds
           for grounded in _groundings(instance.world, action)]
    return sorted(out, key=lambda grounded: (grounded.action, grounded.bindings))


def reference_solve(instance: Instance, candidates=None
                    ) -> tuple[PlanResult, list[WorldState]]:
    """`solve_optimal`'s breadth-first search as it was before it kept bare
    states, over `candidates` (by default the planner's own, in the same
    order), each decided by its compiled step's `failure` on every state.
    Returns the plan and the states the search expanded, in order."""
    engine = Engine(instance)
    world = engine.world
    goal_facts = frozenset(g.fact for g in instance.goals)
    start = instance.start_state()
    done = GroundedAction("done", ())
    if goal_facts <= start.facts:
        return PlanResult((done,), 1, 0), []

    if candidates is None:
        candidates = _candidates(instance)
    steps = [engine.step(grounded, {}) for grounded in candidates]
    parents: dict[frozenset, tuple[frozenset, GroundedAction] | None] = {
        start.facts: None}
    queue: deque[WorldState] = deque([start])
    expanded = []
    while queue:
        state = queue.popleft()
        expanded.append(state)
        if len(expanded) > planner.DEFAULT_BUDGET:
            raise SearchBudgetExceeded(
                f"expanded more than {planner.DEFAULT_BUDGET} states")
        for step in steps:
            if step.failure(state) is not None:
                continue
            removes, adds = step.effects(state)
            new_facts = (state.facts - removes) | adds
            if new_facts in parents:
                continue
            new_state = apply_delta(world, state, removes, adds)
            parents[new_facts] = (state.facts, step.grounded)
            if goal_facts <= new_facts:
                plan = [done]
                key = new_facts
                while parents[key] is not None:
                    key, grounded = parents[key]
                    plan.append(grounded)
                plan.reverse()
                return PlanResult(tuple(plan), len(plan),
                                  len(expanded)), expanded
            queue.append(new_state)
    raise Unsolvable(instance.id)


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


def with_walk(inst: Instance, commands) -> Instance:
    """`inst` with a pre-exploration walk of `commands`, each stored with the
    feedback `Engine.walk` gives it."""
    _, records = Engine(inst).walk(inst.start_state(), commands)
    return replace(inst, preexploration=tuple(
        (command, record.feedback) for command, record in zip(commands, records)))


def plan_agent(inst: Instance, actions) -> ScriptedAgent:
    """A scripted agent that plays `actions` on `inst`, as it would play
    them were they the instance's optimal plan."""
    return ScriptedAgent.from_plan(replace(inst, optimal_plan=tuple(actions)))


def micro_corpus() -> list[Instance]:
    """Criterion 4's 72 handcrafted instances: one to three rooms in a row,
    the goal object hidden or not, inventory limit none, 1 or 2, one or two
    goals, with or without a distractor."""
    corpus = []
    for n_rooms in (1, 2, 3):
        rooms = ["room_a", "room_b", "room_c"][:n_rooms]
        connections = [(rooms[i], rooms[i + 1]) for i in range(n_rooms - 1)]
        for hidden in (False, True):
            for limit in (None, 1, 2):
                for two_goals in (False, True):
                    for distractor in (False, True):
                        entities = [("table", "support", [rooms[-1]]),
                                    ("apple", "takeable", [rooms[0]])]
                        facts = ["at(player," + rooms[0] + ")",
                                 f"at(table,{rooms[-1]})"]
                        goals = ["on(apple,table)"]
                        if hidden:
                            entities.append(("cupboard", "container",
                                             [rooms[0]]))
                            facts += [f"at(cupboard,{rooms[0]})",
                                      "closed(cupboard)",
                                      "in(apple,cupboard)"]
                        else:
                            facts.append(f"at(apple,{rooms[0]})")
                        if two_goals:
                            entities.append(("peach", "takeable", [rooms[0]]))
                            facts.append(f"at(peach,{rooms[0]})")
                            goals.append("on(peach,table)")
                        if distractor:
                            mid = rooms[len(rooms) // 2]
                            entities.append(("broom", "takeable", [mid]))
                            facts.append(f"at(broom,{mid})")
                        corpus.append(micro_instance(
                            rooms=rooms, connections=connections,
                            entities=entities, facts=facts, goals=goals,
                            inventory_limit=limit,
                            instance_id=f"micro-{len(corpus):02d}"))
    return corpus


def apply_lexicon(inst: Instance, lexicon: Lexicon) -> Instance:
    """Substitute an arbitrary lexicon onto a generated instance (prompt
    re-rendered, optimal plan unchanged by construction). Pre-exploration
    pairs are re-simulated so their surface forms match the new vocabulary."""
    new = replace(inst, lexicon=lexicon, preexploration=None)
    new.prompt = _finalize_prompt(new, _standard_extras(new))
    if inst.preexploration:
        new = generate_preexploration(new)
    return new


class VerbBlindAgent(HeuristicAgent):
    """The heuristic policy without the instance's verbs: it writes each
    decided action with its English base verb and the instance's nouns, and
    sends it without checking that it grounds back to the decision."""

    def next_action(self, transcript) -> str:
        if self.episode.turns:
            self._observe(self.episode.turns[-1].revealed_facts)
        return "> " + self._write(self._decide())

    def _write(self, decided: GroundedAction) -> str:
        _, space, nouns = self.engine.parser.render(decided).partition(" ")
        return f"{decided.action}{space}{nouns}"


class LexiconBlindAgent(VerbBlindAgent):
    """The heuristic policy without the instance's words: it writes each
    decided action in English, base verb and base nouns."""

    def _write(self, decided: GroundedAction) -> str:
        english = build_parser(self.engine.parser.actions.values(), Lexicon(),
                               self.world)
        return english.render(decided)


class MemorylessAgent(HeuristicAgent):
    """The heuristic policy without the pre-exploration walk: it believes
    only what the start room shows, not what the walk showed
    (`Instance.preexploration_facts`)."""

    def start(self, episode) -> None:
        super().start(episode)
        self.seen_rooms.clear()
        self.known_locations.clear()
        self._observe(sorted(visible_facts(self.world, episode.state)))
