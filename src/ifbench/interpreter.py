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
from typing import Mapping

from .grammar import (ActionDef, GroundedAction, GroundFailure, ParseFailure)
from .instance import Instance
from .world import (INVENTORY, PLAYER, Fact, GoalCondition, Observation,
                    WorldState, apply_delta, check_goals, connections_of,
                    contents_in, contents_on, entities_at, fact, load_data,
                    state_facts_of, state_to_json, visible_entities,
                    visible_facts)

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

    def _accessible(self, state: WorldState, ident: str) -> bool:
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

    def check_preconditions(self, state: WorldState, action: ActionDef,
                            grounded: GroundedAction) -> str | None:
        """First failing precondition's failure kind, or None when all hold."""
        for cond in action.preconditions:
            check = cond["check"]
            ident = grounded.get(cond["param"]) if "param" in cond else None
            if check == "accessible_here":
                ok = self._accessible(state, ident)
            elif check == "visible_here":
                ok = (ident == INVENTORY
                      or ident in visible_entities(self.world, state))
            elif check == "in_inventory":
                ok = ident in state.inventory
            elif check == "not_in_inventory":
                ok = ident not in state.inventory
            elif check == "inventory_space":
                ok = (state.inventory_limit is None
                      or len(state.inventory) < state.inventory_limit)
            elif check == "connected":
                ok = fact("connects", state.player_room, ident) in state.facts
            elif check == "not_current_room":
                ok = ident != state.player_room
            elif check == "has_state":
                ok = fact(cond["state"], ident) in state.facts
            elif check == "not_has_state":
                ok = fact(cond["state"], ident) not in state.facts
            elif check == "open_if_container":
                ok = (not self.world.is_container(ident)
                      or fact("open", ident) in state.facts)
            elif check == "is_entity":
                ok = ident == cond["entity"]
            elif check == "source_matches":
                source = grounded.get(cond.get("source", "source"))
                if source is None:
                    ok = True
                elif source in self.world.rooms:
                    ok = fact("at", ident, source) in state.facts
                else:
                    ok = (fact("on", ident, source) in state.facts
                          or fact("in", ident, source) in state.facts)
            else:
                raise ValueError(f"unknown precondition check {check!r}")
            if not ok:
                return cond["fail"]
        return None

    def effects(self, state: WorldState, action: ActionDef,
                grounded: GroundedAction) -> tuple[frozenset[Fact], frozenset[Fact]]:
        removes = frozenset(self._instantiate(t, state, grounded)
                            for t in action.removes)
        adds = frozenset(self._instantiate(t, state, grounded)
                         for t in action.adds)
        return removes, adds

    def _instantiate(self, template: tuple[str, ...], state: WorldState,
                     grounded: GroundedAction) -> Fact:
        kind = template[0]
        if kind == "fact":
            args = tuple(self._resolve(a, grounded) for a in template[2:])
            return Fact(template[1], args)
        if kind == "location_of":
            item = self._resolve(template[1], grounded)
            for f in state.facts:
                if f.predicate in ("at", "on", "in") and f.args[0] == item:
                    return f
            raise ValueError(f"{item} has no location fact")
        if kind == "placement":
            item = self._resolve(template[1], grounded)
            target = self._resolve(template[2], grounded)
            pred = "in" if self.world.is_container(target) else "on"
            return Fact(pred, (item, target))
        if kind == "player_at":
            return fact("at", PLAYER, state.player_room)
        raise ValueError(f"unknown effect template {template!r}")

    def _resolve(self, name: str, grounded: GroundedAction) -> str:
        if name in (PLAYER, INVENTORY):
            return name
        bound = grounded.get(name)
        return bound if bound is not None else name

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

        def finish(phase: str, grounded, removes, adds, feedback, new_state):
            revealed = visible_facts(self.world, new_state)
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
        failure = self.check_preconditions(state, action, grounded)
        if failure is not None:
            feedback = render_feedback(action.feedback[failure], bindings)
            return finish("precondition-fail", grounded, frozenset(),
                          frozenset(), feedback, state)

        removes, adds = self.effects(state, action, grounded)
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
    """Mutable state of one running episode: world state, observation memory,
    turn records and the agent-visible transcript."""

    def __init__(self, instance: Instance, turn_limit: int = TURN_LIMIT):
        self.engine = Engine(instance)
        self.instance = instance
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
        # context turns: replayed for observation memory, not counted as turns
        state = self.state
        for command, feedback in self.instance.preexploration:
            state, record = self.engine.execute(state, command,
                                                frozenset(self.observed))
            if record.phase_outcome != "success":
                raise ValueError(f"pre-exploration command failed: {command}")
            self.observed |= record.revealed_facts
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


def run_episode(instance: Instance, agent, turn_limit: int = TURN_LIMIT) -> EpisodeRecord:
    """Loop agent against interpreter until done, abort, or the turn limit."""
    episode = Episode(instance, turn_limit)
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
