"""Turn-resolution pipeline and the episode loop.

Each turn runs format -> parse -> ground -> preconditions -> state change ->
goal check -> feedback; the first failing phase stops the turn and reports
that phase's feedback. Episodes end on ``done``, a format violation, or the
turn limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .grammar import (ActionDef, GroundedAction, GroundFailure, ParseFailure)
from .instance import Instance
from .world import (CONNECTS, INVENTORY, PLAYER, Fact, GoalCondition,
                    Observation, StateView, WorldDef, WorldState, apply_delta,
                    check_goals, connections_of, contents_in, contents_on,
                    entities_at, fact, load_data, state_facts_of,
                    state_to_json, visible_entities, visible_facts)

TURN_LIMIT = 50

PHASES = ("format-fail", "parse-fail", "resolution-fail",
          "precondition-fail", "success")

_NUMBER_WORDS = {0: "zero", 1: "one", 2: "two", 3: "three", 4: "four",
                 5: "five", 6: "six", 7: "seven", 8: "eight", 9: "nine",
                 10: "ten"}


class MissingBinding(KeyError):
    pass


class FormatViolation(Exception):
    """Raw agent output did not start with '>'; the episode aborts."""

    def __init__(self, record: "TurnRecord"):
        super().__init__(record.raw_output)
        self.record = record


class AgentUnavailable(Exception):
    """The agent could not produce a response (network failure etc.)."""


class _StrictBindings(dict):
    def __missing__(self, key):
        raise MissingBinding(key)


def render_feedback(template: str, bindings: Mapping[str, object]) -> str:
    """Fill `{name}` placeholders; raise MissingBinding on unbound names."""
    return template.format_map(_StrictBindings(bindings))


def number_word(n: int) -> str:
    return _NUMBER_WORDS.get(n, str(n))


def load_messages() -> dict:
    return load_data("messages.json")


@dataclass
class TurnRecord:
    turn_index: int
    raw_output: str
    phase_outcome: str
    grounded: GroundedAction | None
    removes: frozenset[Fact]
    adds: frozenset[Fact]
    feedback: str
    revealed_facts: frozenset[Fact]
    goals_achieved_now: frozenset[GoalCondition]
    epistemic_gain: int

    @property
    def observation(self) -> Observation:
        return Observation(self.feedback, self.revealed_facts)


@dataclass
class EpisodeRecord:
    instance_id: str
    family: str
    turns: list[TurnRecord]
    outcome: str
    final_goals_achieved: frozenset[GoalCondition]
    final_state: WorldState
    goals_total: int
    optimal_length: int | None = None
    epistemic_turns: int = 0
    pragmatic_turns: int = 0
    grounded_turns: int = 0
    agent_log: list = field(default_factory=list)


def _article(noun: str) -> str:
    return "an" if noun[:1] in "aeiou" else "a"


def _join(nouns: list[str]) -> str:
    items = [f"{_article(n)} {n}" for n in nouns]
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


# -- compiled steps -----------------------------------------------------------
#
# A step is one action schema compiled for one grounding: its precondition
# tests in declared order and its effect facts, resolved from the grounding
# where they can be. Each test says what it reads, so that a caller that
# knows more than one state (the planner) can decide it in advance.

GROUNDING = "grounding"  # only the grounding: the same in every state
ROOM = "room"  # only `view.room` and the connects facts in `view.facts`
STATE = "state"  # anything in the view


class Check(NamedTuple):
    holds: Callable[[StateView], bool]
    fail: str  # the failure kind, a key of the action's feedback
    reads: str  # GROUNDING, ROOM or STATE


def _fixed(value: bool) -> tuple[Callable[[StateView], bool], str]:
    return (lambda view: value), GROUNDING


def _perceivable_here(world, cond, ident, grounded):
    return (lambda view: ident in view.perceivable), STATE


def _visible_here(world, cond, ident, grounded):
    if ident == INVENTORY:
        return _fixed(True)
    return _perceivable_here(world, cond, ident, grounded)


def _in_inventory(world, cond, ident, grounded):
    return (lambda view: ident in view.state.inventory), STATE


def _not_in_inventory(world, cond, ident, grounded):
    return (lambda view: ident not in view.state.inventory), STATE


def _inventory_space(world, cond, ident, grounded):
    def holds(view):
        limit = view.state.inventory_limit
        return limit is None or len(view.state.inventory) < limit
    return holds, STATE


def _connected(world, cond, ident, grounded):
    return (lambda view: Fact(CONNECTS, (view.room, ident)) in view.facts), ROOM


def _not_current_room(world, cond, ident, grounded):
    return (lambda view: ident != view.room), ROOM


def _has_state(world, cond, ident, grounded):
    held = fact(cond["state"], ident)
    return (lambda view: held in view.facts), STATE


def _not_has_state(world, cond, ident, grounded):
    held = fact(cond["state"], ident)
    return (lambda view: held not in view.facts), STATE


def _open_if_container(world, cond, ident, grounded):
    if not world.is_container(ident):
        return _fixed(True)
    is_open = fact("open", ident)
    return (lambda view: is_open in view.facts), STATE


def _is_entity(world, cond, ident, grounded):
    return _fixed(ident == cond["entity"])


def _source_matches(world, cond, ident, grounded):
    source = grounded.get(cond.get("source", "source"))
    if source is None:
        return _fixed(True)
    if source in world.rooms:
        at = fact("at", ident, source)
        return (lambda view: at in view.facts), STATE
    on, inside = fact("on", ident, source), fact("in", ident, source)
    return (lambda view: on in view.facts or inside in view.facts), STATE


# precondition check name -> builder(world, cond, ident, grounded) of the
# test's (holds, reads)
_CHECKS = {
    "accessible_here": _perceivable_here,
    "visible_here": _visible_here,
    "in_inventory": _in_inventory,
    "not_in_inventory": _not_in_inventory,
    "inventory_space": _inventory_space,
    "connected": _connected,
    "not_current_room": _not_current_room,
    "has_state": _has_state,
    "not_has_state": _not_has_state,
    "open_if_container": _open_if_container,
    "is_entity": _is_entity,
    "source_matches": _source_matches,
}


class Step(NamedTuple):
    """One grounded action, compiled: `failure` and `effects` read the state
    only where the grounding leaves something open."""

    grounded: GroundedAction
    tests: tuple[Check, ...]  # declared order: the first failing one reports
    removes: frozenset[Fact]  # resolved from the grounding
    adds: frozenset[Fact]
    late_removes: tuple[Callable[[StateView], Fact], ...]  # read the state
    late_adds: tuple[Callable[[StateView], Fact], ...]

    def failure(self, view: StateView) -> str | None:
        """First failing precondition's failure kind, or None when all hold."""
        for test in self.tests:
            if not test.holds(view):
                return test.fail
        return None

    def effects(self, view: StateView) -> tuple[frozenset[Fact], frozenset[Fact]]:
        removes, adds = self.removes, self.adds
        if self.late_removes:
            removes = removes.union([late(view) for late in self.late_removes])
        if self.late_adds:
            adds = adds.union([late(view) for late in self.late_adds])
        return removes, adds


def compile_step(world: WorldDef, action: ActionDef,
                 grounded: GroundedAction) -> Step:
    """Compile `action` for `grounded`. ValueError on an unknown check or
    effect template, and on an effect on ``connects`` facts: room connections
    are fixed, which the planner relies on."""
    bound = dict(grounded.bindings)
    tests = []
    for cond in action.preconditions:
        build = _CHECKS.get(cond["check"])
        if build is None:
            raise ValueError(f"unknown precondition check {cond['check']!r}")
        ident = bound.get(cond["param"]) if "param" in cond else None
        holds, reads = build(world, cond, ident, grounded)
        tests.append(Check(holds, cond["fail"], reads))

    def resolve(name: str) -> str:
        return name if name in (PLAYER, INVENTORY) else bound.get(name, name)

    def effect(template: tuple[str, ...]) -> Fact | Callable[[StateView], Fact]:
        kind = template[0]
        if kind == "fact":
            if template[1] == CONNECTS:
                raise ValueError(f"action {action.verb!r} changes connects "
                                 "facts; room connections must stay fixed")
            return Fact(template[1], tuple([resolve(a) for a in template[2:]]))
        if kind == "location_of":
            item = resolve(template[1])
            return lambda view: view.location_of(item)
        if kind == "placement":
            item, target = resolve(template[1]), resolve(template[2])
            return Fact("in" if world.is_container(target) else "on",
                        (item, target))
        if kind == "player_at":
            return lambda view: Fact("at", (PLAYER, view.room))
        raise ValueError(f"unknown effect template {template!r}")

    def split(templates) -> tuple[frozenset[Fact], tuple]:
        facts, late = [], []
        for template in templates:
            resolved = effect(template)
            (facts if isinstance(resolved, Fact) else late).append(resolved)
        return frozenset(facts), tuple(late)

    removes, late_removes = split(action.removes)
    adds, late_adds = split(action.adds)
    return Step(grounded, tuple(tests), removes, adds, late_removes, late_adds)


class Engine:
    """Turn resolution for one instance; parser and templates are prebuilt
    and immutable, so one engine can serve many states."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.world = instance.world
        self.parser = instance.parser
        self.messages = load_messages()
        self.goals = instance.goals
        self.actions = {a.verb: a for a in instance.actions}
        self.lexicon = instance.lexicon
        self._steps: dict[GroundedAction, Step] = {}

    def surface(self, ident: str) -> str:
        return self.parser.surface_of(ident, self.world)

    def state_surface(self, state_name: str) -> str:
        lex = self.lexicon
        return lex.adjective(state_name) if lex else state_name

    # -- descriptions ------------------------------------------------------

    def room_description(self, state: WorldState) -> str:
        msg = self.messages
        room = state.player_room
        parts = [render_feedback(msg["room_intro"], {"room": self.surface(room)})]
        here = entities_at(self.world, state, room)
        if here:
            names = [self.surface(e) for e in here]
            key = "here_one" if len(names) == 1 else "here_many"
            parts.append(render_feedback(msg[key], {"items": _join(names)}))
        for eid in here:
            if self.world.is_container(eid):
                if fact("open", eid) in state.facts:
                    parts.append(render_feedback(
                        msg["container_open"], {"container": self.surface(eid)}))
                    inside = contents_in(state, eid)
                    if inside:
                        parts.append(render_feedback(
                            msg["container_contents"],
                            {"items": _join([self.surface(e) for e in inside])}))
                else:
                    parts.append(render_feedback(
                        msg["container_closed"],
                        {"container": self.surface(eid)}))
            elif self.world.is_support(eid):
                on_top = contents_on(state, eid)
                if on_top:
                    parts.append(render_feedback(
                        msg["support_contents"],
                        {"support": self.surface(eid),
                         "items": _join([self.surface(e) for e in on_top])}))
        for eid in visible_entities(self.world, state):
            if eid in self.world.state_groups:
                for f in state_facts_of(self.world, state, eid):
                    if f.predicate not in ("open", "closed"):
                        parts.append(render_feedback(
                            msg["state_sentence"],
                            {"entity": self.surface(eid),
                             "state": self.state_surface(f.predicate)}))
        exits = connections_of(state, room)
        if exits:
            key = "passage_one" if len(exits) == 1 else "passage_many"
            parts.append(render_feedback(
                msg[key], {"rooms": _join([self.surface(r) for r in exits])}))
        return " ".join(parts)

    def entity_description(self, state: WorldState, ident: str) -> str:
        msg = self.messages
        if ident == INVENTORY:
            if not state.inventory:
                return msg["inventory_empty"]
            names = [self.surface(e) for e in state.inventory]
            return render_feedback(msg["inventory_contents"],
                                   {"items": _join(names)})
        name = self.surface(ident)
        if self.world.is_container(ident):
            if fact("open", ident) in state.facts:
                inside = contents_in(state, ident)
                tail = (render_feedback(
                    msg["container_contents"],
                    {"items": _join([self.surface(e) for e in inside])})
                    if inside else msg["container_empty"])
                return render_feedback(msg["container_open"],
                                       {"container": name}) + " " + tail
            return render_feedback(msg["container_closed"], {"container": name})
        if self.world.is_support(ident):
            on_top = contents_on(state, ident)
            if on_top:
                return render_feedback(
                    msg["support_contents"],
                    {"support": name,
                     "items": _join([self.surface(e) for e in on_top])})
            return render_feedback(msg["support_empty"], {"support": name})
        for f in sorted(state.facts):
            if f.predicate == "in" and f.args[0] == ident:
                if f.args[1] == INVENTORY:
                    return render_feedback(msg["examine_in_inventory"],
                                           {"entity": name})
                return render_feedback(
                    msg["examine_in"],
                    {"entity": name, "holder": self.surface(f.args[1])})
            if f.predicate == "on" and f.args[0] == ident:
                return render_feedback(
                    msg["examine_on"],
                    {"entity": name, "holder": self.surface(f.args[1])})
        states = [f for f in state_facts_of(self.world, state, ident)]
        if states:
            return render_feedback(
                msg["state_sentence"],
                {"entity": name,
                 "state": self.state_surface(states[0].predicate)})
        for f in state.facts:
            if f.predicate == "at" and f.args[0] == ident:
                return render_feedback(msg["examine_at_room"], {"entity": name})
        return render_feedback(msg["examine_plain"], {"entity": name})

    # -- preconditions and effects ----------------------------------------

    def step(self, grounded: GroundedAction) -> Step:
        """The compiled step of a grounded action, compiled on first use."""
        step = self._steps.get(grounded)
        if step is None:
            step = self._steps[grounded] = compile_step(
                self.world, self.actions[grounded.action], grounded)
        return step

    def _step_of(self, action: ActionDef, grounded: GroundedAction) -> Step:
        if self.actions.get(grounded.action) is not action:
            raise ValueError(f"{action.verb!r} is not this engine's action "
                             f"for {grounded.action!r}")
        return self.step(grounded)

    def check_preconditions(self, state: WorldState, action: ActionDef,
                            grounded: GroundedAction) -> str | None:
        """First failing precondition's failure kind, or None when all hold."""
        return self._step_of(action, grounded).failure(StateView(state))

    def effects(self, state: WorldState, action: ActionDef,
                grounded: GroundedAction) -> tuple[frozenset[Fact], frozenset[Fact]]:
        return self._step_of(action, grounded).effects(StateView(state))

    def advance(self, state: WorldState,
                command: str) -> tuple[GroundedAction, WorldState]:
        """Resolve a command that must succeed: parse, ground, preconditions
        and the checked `apply_delta`, with no feedback and no goal check.
        ValueError naming the command if any phase fails."""
        trimmed = command.strip()
        if not trimmed.startswith(">"):
            raise ValueError(f"{command!r} does not start with '>'")
        try:
            grounded = self.parser.ground(
                self.parser.parse(trimmed.splitlines()[0][1:]), self.world)
        except (ParseFailure, GroundFailure) as exc:
            raise ValueError(f"{command!r} failed: {exc}") from exc
        step = self.step(grounded)
        view = StateView(state)
        failure = step.failure(view)
        if failure is not None:
            raise ValueError(f"{command!r} failed: {failure}")
        removes, adds = step.effects(view)
        return grounded, apply_delta(self.world, state, removes, adds)

    # -- the turn pipeline -------------------------------------------------

    def execute(self, state: WorldState, raw: str,
                observed: frozenset[Fact] = frozenset(),
                turn_index: int = 1) -> tuple[WorldState, TurnRecord]:
        """Resolve one raw agent output against a state.

        Raises FormatViolation (carrying the TurnRecord) when the output does
        not start with '>'. Failed turns never change the state.
        """
        trimmed = raw.strip()
        if not trimmed.startswith(">"):
            record = TurnRecord(turn_index, raw, "format-fail", None,
                                frozenset(), frozenset(), "",
                                frozenset(), frozenset(), 0)
            raise FormatViolation(record)
        line = trimmed.splitlines()[0][1:]

        def finish(phase: str, grounded, removes, adds, feedback, new_state,
                   view: StateView | None = None):
            revealed = visible_facts(self.world, new_state, view)
            achieved = frozenset(check_goals(new_state, self.goals))
            gain = len(revealed - observed)
            return new_state, TurnRecord(turn_index, raw, phase, grounded,
                                         removes, adds, feedback, revealed,
                                         achieved, gain)

        msg = self.messages
        try:
            cmd = self.parser.parse(line)
        except ParseFailure as exc:
            template = msg["unknown_verb"] if exc.kind == "unknown-verb" else msg["malformed"]
            feedback = render_feedback(template, {"verb": exc.word})
            return finish("parse-fail", None, frozenset(), frozenset(),
                          feedback, state)
        try:
            grounded = self.parser.ground(cmd, self.world)
        except GroundFailure as exc:
            templates = {"unknown-entity": "unknown_entity",
                         "trait-mismatch": "trait_mismatch",
                         "ambiguous": "ambiguous",
                         "prep-mismatch": "prep_mismatch"}
            feedback = render_feedback(
                msg[templates[exc.kind]],
                {"noun": exc.noun, "verb": cmd.verb,
                 "prep": cmd.preposition or ""})
            return finish("resolution-fail", None, frozenset(), frozenset(),
                          feedback, state)

        action = self.actions[grounded.action]
        bindings = self._feedback_bindings(state, action, grounded)
        step = self.step(grounded)
        view = StateView(state)
        failure = step.failure(view)
        if failure is not None:
            feedback = render_feedback(action.feedback[failure], bindings)
            return finish("precondition-fail", grounded, frozenset(),
                          frozenset(), feedback, state, view)

        removes, adds = step.effects(view)
        new_state = apply_delta(self.world, state, removes, adds)
        feedback = self._success_feedback(new_state, action, grounded, bindings)
        return finish("success", grounded, removes, adds, feedback, new_state)

    def _feedback_bindings(self, state: WorldState, action: ActionDef,
                           grounded: GroundedAction) -> dict:
        bindings: dict[str, object] = {}
        for name, ident in grounded.bindings:
            bindings[name] = self.surface(ident)
        target = grounded.get("target")
        if target is not None:
            bindings["prep"] = "in" if self.world.is_container(target) else "on"
        if state.inventory_limit is not None:
            bindings["limit"] = number_word(state.inventory_limit)
        return bindings

    def _success_feedback(self, new_state: WorldState, action: ActionDef,
                          grounded: GroundedAction, bindings: dict) -> str:
        template = action.feedback["success"]
        if "{room_description}" in template:
            bindings["room_description"] = self.room_description(new_state)
        if "{entity_description}" in template:
            bindings["entity_description"] = self.entity_description(
                new_state, grounded.get("item"))
        if "{contents}" in template:
            item = grounded.get("item")
            inside = contents_in(new_state, item)
            if inside:
                bindings["contents"] = render_feedback(
                    self.messages["container_contents"],
                    {"items": _join([self.surface(e) for e in inside])})
            else:
                bindings["contents"] = self.messages["container_empty"]
        return render_feedback(template, bindings)


class Episode:
    """Mutable state of one running episode of `engine`'s instance: world
    state, observation memory, turn records and the agent-visible
    transcript."""

    def __init__(self, engine: Engine, turn_limit: int = TURN_LIMIT):
        self.engine = engine
        self.instance = instance = engine.instance
        self.turn_limit = turn_limit
        self.state = instance.start_state()
        self.observed: set[Fact] = set()
        self.turns: list[TurnRecord] = []
        self.transcript: list[tuple[str, str]] = [
            ("environment", instance.prompt)]
        self.outcome: str | None = None
        self.observed |= visible_facts(self.engine.world, self.state)
        if instance.preexploration:
            self._replay_preexploration()

    def _replay_preexploration(self) -> None:
        # context turns: replayed for observation memory, not counted as
        # turns; the transcript gets the feedback stored in the instance
        state = self.state
        world = self.engine.world
        for command, feedback in self.instance.preexploration:
            try:
                _, state = self.engine.advance(state, command)
            except ValueError as exc:
                raise ValueError(
                    f"pre-exploration command failed: {command}") from exc
            self.observed |= visible_facts(world, state)
            self.transcript.append(("agent", command))
            self.transcript.append(("environment", feedback))
        if state.facts != self.state.facts:
            raise ValueError("pre-exploration walk did not return to start")

    @property
    def done(self) -> bool:
        return self.outcome is not None

    def abort(self, outcome: str) -> None:
        self.outcome = outcome

    def step(self, raw: str) -> TurnRecord:
        if self.done:
            raise RuntimeError("episode already ended")
        index = len(self.turns) + 1
        try:
            state, record = self.engine.execute(self.state, raw,
                                                frozenset(self.observed), index)
        except FormatViolation as exc:
            self.turns.append(exc.record)
            self.transcript.append(("agent", raw))
            self.outcome = "aborted-format"
            return exc.record
        self.state = state
        self.observed |= record.revealed_facts
        self.turns.append(record)
        self.transcript.append(("agent", raw))
        self.transcript.append(("environment", record.feedback))
        if (record.phase_outcome == "success" and record.grounded
                and record.grounded.action == "done"):
            achieved = check_goals(state, self.instance.goals)
            self.outcome = ("success" if len(achieved) == len(self.instance.goals)
                            else "lost")
        elif index >= self.turn_limit:
            self.outcome = "aborted-turn-limit"
        return record

    def record(self) -> EpisodeRecord:
        achieved = frozenset(check_goals(self.state, self.instance.goals))
        epistemic = pragmatic = grounded = 0
        for turn in self.turns:
            if turn.grounded is None:
                continue
            grounded += 1
            flags = self.engine.actions[turn.grounded.action].flags
            epistemic += flags.epistemic
            pragmatic += flags.pragmatic
        return EpisodeRecord(
            instance_id=self.instance.id,
            family=self.instance.family,
            turns=list(self.turns),
            outcome=self.outcome or "aborted-turn-limit",
            final_goals_achieved=achieved,
            final_state=self.state,
            goals_total=len(self.instance.goals),
            optimal_length=self.instance.optimal_length,
            epistemic_turns=epistemic,
            pragmatic_turns=pragmatic,
            grounded_turns=grounded,
        )


def run_episode(instance: Instance, agent, turn_limit: int = TURN_LIMIT,
                engine: Engine | None = None) -> EpisodeRecord:
    """Loop agent against interpreter until done, abort, or the turn limit.
    `engine`, if given, is an engine of `instance` that the agent shares, so
    that each step is compiled once."""
    episode = Episode(engine or Engine(instance), turn_limit)
    while not episode.done:
        try:
            raw = agent.next_action(tuple(episode.transcript))
        except AgentUnavailable:
            episode.abort("aborted-agent")
            break
        episode.step(raw)
    record = episode.record()
    record.agent_log = list(getattr(agent, "log", ()) or ())
    return record


# -- episode persistence ----------------------------------------------------

def episode_summary(record: EpisodeRecord) -> dict:
    """The summary object that closes an episode's JSON lines."""
    phase_counts = {p: 0 for p in PHASES}
    for turn in record.turns:
        phase_counts[turn.phase_outcome] += 1
    return {
        "type": "summary",
        "instance_id": record.instance_id,
        "family": record.family,
        "outcome": record.outcome,
        "turns": len(record.turns),
        "goals_total": record.goals_total,
        "goals_achieved": sorted(str(g.fact) for g in record.final_goals_achieved),
        "phase_counts": phase_counts,
        "grounded_turns": record.grounded_turns,
        "epistemic_turns": record.epistemic_turns,
        "pragmatic_turns": record.pragmatic_turns,
        "optimal_length": record.optimal_length,
        "final_state": state_to_json(record.final_state),
        "agent_log": record.agent_log,
    }


def episode_to_lines(record: EpisodeRecord) -> list[str]:
    """JSON-lines form: one turn per line, then one summary object."""
    lines = []
    for turn in record.turns:
        lines.append(json.dumps({
            "type": "turn",
            "turn": turn.turn_index,
            "raw": turn.raw_output,
            "phase": turn.phase_outcome,
            "action": ({"verb": turn.grounded.action,
                        "bindings": [list(b) for b in turn.grounded.bindings]}
                       if turn.grounded else None),
            "removes": sorted(str(f) for f in turn.removes),
            "adds": sorted(str(f) for f in turn.adds),
            "feedback": turn.feedback,
            "revealed": sorted(str(f) for f in turn.revealed_facts),
            "goals_now": sorted(str(g.fact) for g in turn.goals_achieved_now),
            "epistemic_gain": turn.epistemic_gain,
        }, sort_keys=True))
    lines.append(json.dumps(episode_summary(record), sort_keys=True))
    return lines


def write_episode(record: EpisodeRecord, path: str | Path) -> None:
    Path(path).write_text("\n".join(episode_to_lines(record)) + "\n",
                          encoding="utf-8")


def read_episode_summary(path: str | Path) -> dict:
    """The summary object that closes an episode file; ValueError naming the
    file when it is empty or its last line is not a summary."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: last line is not JSON ({exc})") from exc
    if not isinstance(summary, dict) or summary.get("type") != "summary":
        raise ValueError(f"no summary line in {path}")
    return summary
