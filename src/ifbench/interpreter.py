"""Turn-resolution pipeline and the episode loop.

Each turn runs format -> parse -> ground -> preconditions -> state change ->
goal check -> feedback; the first failing phase stops the turn and reports
that phase's feedback. Episodes end on ``done``, a format violation, or the
turn limit. Each instance has one engine (`Instance.engine`), which no turn
changes. A turn's preconditions and effects are the step that
`grammar.compile_step` makes of its grounded action, once per loop that
plays turns: an episode, a walk, a search each keep their own memo.
`Engine.walk` plays a pre-exploration walk, once per instance; an episode
starts with the walk's turns in its transcript. An episode's file ends in
its summary line, which every score is computed from;
`read_episode_summary` is the one checked reader of that line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .grammar import (ActionDef, GroundedAction, GroundFailure, Lexicon,
                      ParseFailure, Step, build_parser, compile_step)
from .world import (INVENTORY, Fact, GoalCondition, WorldDef, WorldState,
                    apply_delta, check_goals, fact, load_data, room_exits,
                    state_facts_of, state_to_json, visible_facts)

if TYPE_CHECKING:
    from .instance import Instance

TURN_LIMIT = 50

PHASES = ("format-fail", "parse-fail", "resolution-fail",
          "precondition-fail", "success")
OUTCOMES = ("success", "lost", "aborted-format", "aborted-turn-limit",
            "aborted-agent")

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


def _article(noun: str) -> str:
    return "an" if noun[:1] in "aeiou" else "a"


def _join(nouns: list[str]) -> str:
    items = [f"{_article(n)} {n}" for n in nouns]
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _by_holder(state: WorldState) -> dict[str, list[str]]:
    """The entities the player perceives, grouped by what holds them: the
    room, a support, an open container or the inventory; each group sorted."""
    held: dict[str, list[str]] = {}
    for eid, where in sorted(state.perceivable.items()):
        held.setdefault(where.args[1], []).append(eid)
    return held


Steps = dict[GroundedAction, Step]  # a loop's compiled steps, by action


class Engine:
    """Turn resolution for one instance: its world, parser, goals and the
    feedback templates, built once and never changed, so one engine serves
    many states, loops and threads. It keeps no compiled steps (see `step`)
    and no reference to its instance."""

    def __init__(self, instance: Instance):
        self.world = WorldDef(
            entities={e.id: e for e in instance.entities},
            rooms={r.id: r for r in instance.rooms},
            state_groups={g.entity: g for g in instance.state_groups},
            exits=room_exits((r.id for r in instance.rooms),
                             instance.connections),
        )
        self.parser = build_parser(instance.actions,
                                   instance.lexicon or Lexicon(), self.world)
        self.goals = instance.goals
        self.messages = load_messages()

    # -- descriptions ------------------------------------------------------
    #
    # Both read `WorldState.perceivable`: what a description lists is
    # exactly what the player can perceive, grouped by what holds it.

    def _say(self, key: str, **bindings) -> str:
        return render_feedback(self.messages[key], bindings)

    def _names(self, idents) -> str:
        return _join([self.parser.surface_of(e) for e in idents])

    def _in_it(self, items: list[str] | None) -> str:
        """What an open container holds, or that it is empty."""
        if items:
            return self._say("container_contents", items=self._names(items))
        return self.messages["container_empty"]

    def _receptacle(self, eid: str, state: WorldState,
                    held: dict[str, list[str]], examined: bool) -> list[str]:
        """The sentences about a container (open or closed, and what is in
        an open one) or a support (what is on it); that one is empty is said
        only when `examined`."""
        name, items = self.parser.surface_of(eid), held.get(eid)
        if self.world.is_support(eid):
            if items:
                return [self._say("support_contents", support=name,
                                  items=self._names(items))]
            return [self._say("support_empty", support=name)] if examined else []
        if fact("open", eid) not in state.facts:
            return [self._say("container_closed", container=name)]
        opened = self._say("container_open", container=name)
        return [opened, self._in_it(items)] if items or examined else [opened]

    def _state_sentence(self, eid: str, state_fact: Fact) -> str:
        return self._say("state_sentence", entity=self.parser.surface_of(eid),
                         state=self.parser.lexicon.adjective(state_fact.predicate))

    def room_description(self, state: WorldState) -> str:
        held = _by_holder(state)
        room = state.player_room
        here = held.get(room, [])
        parts = [self._say("room_intro", room=self.parser.surface_of(room))]
        if here:
            parts.append(self._say("here_one" if len(here) == 1 else "here_many",
                                   items=self._names(here)))
        for eid in here:
            if self.world.is_container(eid) or self.world.is_support(eid):
                parts.extend(self._receptacle(eid, state, held, False))
        for eid in sorted(state.perceivable):
            if eid in self.world.state_groups:
                for f in state_facts_of(self.world, state, eid):
                    if f.predicate not in ("open", "closed"):
                        parts.append(self._state_sentence(eid, f))
        exits = self.world.exits[room]
        if exits:
            parts.append(self._say(
                "passage_one" if len(exits) == 1 else "passage_many",
                rooms=self._names(exits)))
        return " ".join(parts)

    def entity_description(self, state: WorldState, ident: str) -> str:
        """What examining `ident`, the inventory or an entity the player
        perceives, says."""
        if ident == INVENTORY:
            carried = state.inventory
            if not carried:
                return self.messages["inventory_empty"]
            return self._say("inventory_contents", items=self._names(carried))
        if self.world.is_container(ident) or self.world.is_support(ident):
            return " ".join(self._receptacle(ident, state, _by_holder(state), True))
        name, where = self.parser.surface_of(ident), state.perceivable[ident]
        if where.args[1] == INVENTORY:
            return self._say("examine_in_inventory", entity=name)
        if where.predicate != "at":  # examine_in, examine_on
            return self._say("examine_" + where.predicate, entity=name,
                             holder=self.parser.surface_of(where.args[1]))
        states = state_facts_of(self.world, state, ident)
        if states:
            return self._state_sentence(ident, states[0])
        return self._say("examine_at_room", entity=name)

    # -- preconditions and effects ----------------------------------------

    def step(self, grounded: GroundedAction, memo: Steps) -> Step:
        """The compiled step of a grounded action, kept in `memo` once
        compiled: the memo of the loop that plays it, which lives exactly
        as long as the loop."""
        step = memo.get(grounded)
        if step is None:
            step = memo[grounded] = compile_step(
                self.world, self.parser.actions[grounded.action], grounded)
        return step

    # -- the turn pipeline -------------------------------------------------

    def execute(self, state: WorldState, raw: str,
                observed: frozenset[Fact] = frozenset(), turn_index: int = 1,
                steps: Steps | None = None) -> tuple[WorldState, TurnRecord]:
        """Resolve one raw agent output against a state, keeping the step it
        compiles in the calling loop's memo `steps`, if given (see `step`).

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

        def finish(phase: str, feedback: str, result: WorldState,
                   grounded=None, removes=frozenset(), adds=frozenset()):
            revealed = visible_facts(self.world, result)
            achieved = frozenset(check_goals(result, self.goals))
            gain = len(revealed - observed)
            return result, TurnRecord(turn_index, raw, phase, grounded,
                                      removes, adds, feedback, revealed,
                                      achieved, gain)

        msg = self.messages
        try:
            cmd = self.parser.parse(line)
        except ParseFailure as exc:  # unknown-verb or malformed
            feedback = render_feedback(msg[exc.kind.replace("-", "_")],
                                       {"verb": exc.word})
            return finish("parse-fail", feedback, state)
        try:
            grounded = self.parser.ground(cmd)
        except GroundFailure as exc:
            feedback = render_feedback(
                msg[exc.kind.replace("-", "_")],
                {"noun": exc.noun, "verb": cmd.verb,
                 "prep": cmd.preposition or ""})
            return finish("resolution-fail", feedback, state)

        action = self.parser.actions[grounded.action]
        bindings = self._feedback_bindings(state, action, grounded)
        step = self.step(grounded, {} if steps is None else steps)
        failure = step.failure(state)
        if failure is not None:
            feedback = render_feedback(action.feedback[failure], bindings)
            return finish("precondition-fail", feedback, state, grounded)

        removes, adds = step.effects(state)
        result = apply_delta(self.world, state, removes, adds)
        feedback = self._success_feedback(result, action, grounded, bindings)
        return finish("success", feedback, result, grounded, removes, adds)

    def walk(self, state: WorldState, commands: Iterable[str]
             ) -> tuple[WorldState, list[TurnRecord]]:
        """Play `commands` from `state`: the final state and the records.
        ValueError naming a step that lacks '>' or does not succeed."""
        records, steps = [], {}
        for n, command in enumerate(commands):
            try:
                state, record = self.execute(state, command, steps=steps)
            except FormatViolation:
                raise ValueError(f"step {n} {command!r} does not start "
                                 "with '>'") from None
            if record.phase_outcome != "success":
                raise ValueError(f"step {n} {command!r} failed in "
                                 f"{record.phase_outcome}: {record.feedback}")
            records.append(record)
        return state, records

    def _feedback_bindings(self, state: WorldState, action: ActionDef,
                           grounded: GroundedAction) -> dict:
        bindings: dict[str, object] = {}
        for name, ident in grounded.bindings:
            bindings[name] = self.parser.surface_of(ident)
        target = grounded.get("target")
        if target is not None:
            bindings["prep"] = "in" if self.world.is_container(target) else "on"
        if state.inventory_limit is not None:
            bindings["limit"] = number_word(state.inventory_limit)
        return bindings

    def _success_feedback(self, state: WorldState, action: ActionDef,
                          grounded: GroundedAction, bindings: dict) -> str:
        template = action.feedback["success"]
        if "{room_description}" in template:
            bindings["room_description"] = self.room_description(state)
        if "{entity_description}" in template:
            bindings["entity_description"] = self.entity_description(
                state, grounded.get("item"))
        if "{contents}" in template:
            bindings["contents"] = self._in_it(
                _by_holder(state).get(grounded.get("item")))
        return render_feedback(template, bindings)


class Episode:
    """One episode of an instance, played by its engine: world state,
    observation memory, the steps compiled so far, turn records, the
    agent-visible transcript, the outcome once it ended, and the agent's
    own log (`run_episode` fills it)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.engine = engine = instance.engine
        self.steps: Steps = {}
        self.state = instance.start_state()
        # the pre-exploration's turns, seen and not counted, end at the start
        self.observed: set[Fact] = set(instance.preexploration_facts
                                       or visible_facts(engine.world, self.state))
        self.transcript: list[tuple[str, str]] = [("environment", instance.prompt)]
        for command, feedback in instance.preexploration or ():
            self.transcript += [("agent", command), ("environment", feedback)]
        self.turns: list[TurnRecord] = []
        self.outcome: str | None = None
        self.agent_log: list = []

    @property
    def done(self) -> bool:
        return self.outcome is not None

    def step(self, raw: str) -> TurnRecord:
        if self.done:
            raise RuntimeError("episode already ended")
        index = len(self.turns) + 1
        try:
            state, record = self.engine.execute(
                self.state, raw, frozenset(self.observed), index, self.steps)
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
        elif index >= TURN_LIMIT:
            self.outcome = "aborted-turn-limit"
        return record


def run_episode(instance: Instance, agent) -> Episode:
    """Loop agent against interpreter until done, abort, or the turn limit,
    and return the ended episode. An agent that defines `start(episode)` is
    handed the episode first, after its pre-exploration walk, to read."""
    episode = Episode(instance)
    if hasattr(agent, "start"):
        agent.start(episode)
    while not episode.done:
        try:
            raw = agent.next_action(tuple(episode.transcript))
        except AgentUnavailable:
            episode.outcome = "aborted-agent"
            break
        episode.step(raw)
    episode.agent_log = list(getattr(agent, "log", ()) or ())
    return episode


# -- episode persistence ----------------------------------------------------

def episode_summary(episode: Episode) -> dict:
    """The summary object that closes an episode's JSON lines: the one place
    that tallies its turns, by phase and by the flags of their actions."""
    instance = episode.instance
    phase_counts = {p: 0 for p in PHASES}
    grounded = epistemic = pragmatic = 0
    for turn in episode.turns:
        phase_counts[turn.phase_outcome] += 1
        if turn.grounded is not None:
            grounded += 1
            flags = episode.engine.parser.actions[turn.grounded.action].flags
            epistemic += flags.epistemic
            pragmatic += flags.pragmatic
    achieved = check_goals(episode.state, instance.goals)
    return {
        "type": "summary",
        "instance_id": instance.id,
        "family": instance.family,
        "outcome": episode.outcome,
        "turns": len(episode.turns),
        "goals_total": len(instance.goals),
        "goals_achieved": sorted(str(g.fact) for g in achieved),
        "phase_counts": phase_counts,
        "grounded_turns": grounded,
        "epistemic_turns": epistemic,
        "pragmatic_turns": pragmatic,
        "optimal_length": instance.optimal_length,
        "final_state": state_to_json(episode.engine.world, episode.state),
        "agent_log": episode.agent_log,
    }


def write_episode(episode: Episode, path: str | Path) -> dict:
    """Write the episode as JSON lines, one per turn and then its summary;
    return the summary."""
    lines = []
    for turn in episode.turns:
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
    summary = episode_summary(episode)
    lines.append(json.dumps(summary, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return summary


def read_episode_summary(path: str | Path) -> dict:
    """The summary on the last line of an episode file, ``<family>/<id>.jsonl``.
    ValueError naming the file and the field if a key that scores read is
    missing, mistyped, or at odds with the other keys or the path."""
    path = Path(path)
    try:
        s = json.loads(path.read_text(encoding="utf-8").rstrip().rpartition("\n")[2])
    except ValueError as exc:  # not UTF-8, or the last line is not JSON
        raise ValueError(f"{path}: not UTF-8 text ending in a JSON line "
                         f"({exc})") from exc

    def need(field: str, holds: bool, what: str) -> None:
        if not holds:
            raise ValueError(f"{path}: summary field {field!r} must be {what}")

    def count(key: str) -> int | None:  # a non-negative int, or None
        return s[key] if type(s.get(key)) is int and s[key] >= 0 else None

    need("type", isinstance(s, dict) and s.get("type") == "summary",
         "'summary', on a last line that is a JSON object")
    for field, name, what in (("family", path.parent.name, "file's directory"),
                              ("instance_id", path.stem, "file's name")):
        need(field, s.get(field) == name, f"{name!r}, the {what}")
    need("outcome", s.get("outcome") in OUTCOMES, f"one of {', '.join(OUTCOMES)}")
    phases = s.get("phase_counts")
    need("phase_counts", isinstance(phases, dict) and phases.keys() == set(PHASES)
         and all(type(n) is int and n >= 0 for n in phases.values()),
         f"a count for each of {', '.join(PHASES)}")
    need("turns", count("turns") == sum(phases.values()), "the sum of 'phase_counts'")
    grounded = phases["precondition-fail"] + phases["success"]
    need("grounded_turns", count("grounded_turns") == grounded,
         "the precondition-fail and success turns of 'phase_counts'")
    for key in ("epistemic_turns", "pragmatic_turns"):
        need(key, count(key) in range(grounded + 1), "at most 'grounded_turns'")
    total, achieved = count("goals_total"), s.get("goals_achieved")
    need("goals_total", total not in (None, 0), "a positive count")
    need("goals_achieved", isinstance(achieved, list) and all(
        isinstance(g, str) for g in achieved) and len(set(achieved)) == len(
        achieved) <= total, "at most 'goals_total' distinct strings")
    need("outcome", s["outcome"] not in ("success", "lost") or (
        s["outcome"] == "success") == (len(achieved) == total),
         "'success' where 'goals_achieved' holds all goals, 'lost' where not")
    need("optimal_length", s.get("optimal_length", 0) is None
         or count("optimal_length") not in (None, 0), "null or a positive count")
    return s
