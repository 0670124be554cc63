"""Verb schemas, their one reader (`action_from_json`, for bundled, stored
and generated rows alike, accepting just what `compile_step` resolves and a
turn renders) and their compiler, the command grammar, and grounding.

Commands have the shape ``<verb> [function-words] <noun-phrase>
[<prep> <noun-phrase>]``; ``done`` and ``look`` take no arguments. Each verb
carries a small grammar snippet (see actions.json) from which its slot
pattern is compiled. Multiword nouns are matched greedily, longest first.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from typing import Collection, Iterable, Mapping, NamedTuple

from .world import (INVENTORY, PLAYER, Fact, WorldDef, WorldState, fact,
                    load_data)

FUNCTION_WORDS = frozenset({"the", "a", "an", "to", "at", "on", "in", "from"})


class ParseFailure(Exception):
    """Parsing-phase failure: unknown-verb or malformed."""

    def __init__(self, kind: str, word: str = ""):
        super().__init__(f"{kind}: {word}")
        self.kind = kind
        self.word = word


class GroundFailure(Exception):
    """Resolution-phase failure: unknown-entity, trait-mismatch, ambiguous,
    prep-mismatch."""

    def __init__(self, kind: str, noun: str = "", verb: str = ""):
        super().__init__(f"{kind}: {noun}")
        self.kind = kind
        self.noun = noun
        self.verb = verb


class DuplicateVerb(Exception):
    pass


@dataclass(frozen=True)
class ActionFlags:
    epistemic: bool
    pragmatic: bool
    replaceable: bool


@dataclass(frozen=True)
class Param:
    name: str
    trait: str
    optional: bool = False


@dataclass(frozen=True)
class ActionDef:
    """A verb schema: grammar snippet, typed params, preconditions, effects,
    feedback templates, and the Table-of-actions flags. Only
    `action_from_json` builds one, and `compile_step` and `Parser` trust it."""

    verb: str
    params: tuple[Param, ...]
    grammar: str
    flags: ActionFlags
    preconditions: tuple[Mapping, ...]
    removes: tuple[tuple[str, ...], ...]
    adds: tuple[tuple[str, ...], ...]
    feedback: Mapping[str, str]
    explanation: str | None = None

    def to_json(self) -> dict:
        data = {
            "verb": self.verb,
            "params": [asdict(p) for p in self.params],
            "grammar": self.grammar,
            "flags": asdict(self.flags),
            "preconditions": [dict(p) for p in self.preconditions],
            "effects": {"removes": [list(t) for t in self.removes],
                        "adds": [list(t) for t in self.adds]},
            "feedback": dict(self.feedback),
        }
        if self.explanation:
            data["explanation"] = self.explanation
        return data


# -- compiled steps -----------------------------------------------------------
#
# A step is one action schema compiled for one grounding: its precondition
# tests in declared order and its effect facts, resolved from the grounding
# where they can be. Each test is a fact form: a turn decides it on a state
# (`FactTest.holds`), and the planner compiles the same form into bit masks.


class FactTest(NamedTuple):
    """A precondition test in fact form: it holds when all facts of one
    `any_of` set are held (never, if there is no set), no `none_of` fact is,
    if `space` fewer ``in(_, inventory)`` facts than the inventory limit, and
    if `seen` is set, that entity is perceivable (`world.perceivable_when`)."""
    any_of: tuple[tuple[Fact, ...], ...] = ((),)
    none_of: tuple[Fact, ...] = ()
    space: bool = False
    seen: str | None = None

    def holds(self, state: WorldState) -> bool:
        if self.seen is not None and self.seen not in state.perceivable:
            return False
        if (self.space and state.inventory_limit is not None
                and len(state.inventory) >= state.inventory_limit):
            return False
        facts = state.facts
        if not facts.isdisjoint(self.none_of):
            return False
        for needed in self.any_of:
            if facts.issuperset(needed):
                return True
        return False


def _held(f: Fact) -> FactTest:
    return FactTest(((f,),))


def _absent(f: Fact) -> FactTest:
    return FactTest(none_of=(f,))


def _seen(ident: str | None) -> FactTest:
    """The player perceives `ident`; never, for an unbound parameter."""
    return FactTest(()) if ident is None else FactTest(seen=ident)


def _connected(world, cond, ident, grounded):
    return FactTest(tuple((fact("at", PLAYER, room),)
                          for room in world.exits.get(ident, ())))


def _source_matches(world, cond, ident, grounded):
    source = grounded.get(cond.get("source", "source"))
    if source is None:
        return None
    if source in world.rooms:
        return _held(fact("at", ident, source))
    return FactTest(((fact("on", ident, source),), (fact("in", ident, source),)))


# precondition check name -> builder(world, cond, ident, grounded) of the
# check's fact form, or None when the grounding alone makes it hold
_CHECKS = {
    "accessible_here": lambda world, cond, ident, grounded: _seen(ident),
    "visible_here": lambda world, cond, ident, grounded: (
        None if ident == INVENTORY else _seen(ident)),
    "in_inventory": lambda world, cond, ident, grounded: _held(
        fact("in", ident, INVENTORY)),
    "not_in_inventory": lambda world, cond, ident, grounded: _absent(
        fact("in", ident, INVENTORY)),
    "inventory_space": lambda world, cond, ident, grounded: FactTest(space=True),
    "connected": _connected,
    "not_current_room": lambda world, cond, ident, grounded: _absent(
        fact("at", PLAYER, ident)),
    "has_state": lambda world, cond, ident, grounded: _held(
        fact(cond["state"], ident)),
    "not_has_state": lambda world, cond, ident, grounded: _absent(
        fact(cond["state"], ident)),
    "open_if_container": lambda world, cond, ident, grounded: (
        _held(fact("open", ident)) if world.is_container(ident) else None),
    "is_entity": lambda world, cond, ident, grounded: (
        None if ident == cond["entity"] else FactTest(())),
    "source_matches": _source_matches,
}


class Step(NamedTuple):
    """One grounded action, compiled: `failure` and `effects` read the state
    only where the grounding leaves something open."""

    grounded: GroundedAction
    # (form, failure kind), in declared order: the first failing one reports
    tests: tuple[tuple[FactTest, str], ...]
    removes: frozenset[Fact]  # resolved from the grounding
    adds: frozenset[Fact]
    late_removes: tuple[str, ...]  # subjects whose `location_of` it removes

    def failure(self, state: WorldState) -> str | None:
        """First failing precondition's failure kind, or None when all hold."""
        for form, fail in self.tests:
            if not form.holds(state):
                return fail
        return None

    def effects(self, state: WorldState) -> tuple[frozenset[Fact], frozenset[Fact]]:
        removes = self.removes
        if self.late_removes:
            removes = removes.union(map(state.location_of, self.late_removes))
        return removes, self.adds


def compile_step(world: WorldDef, action: ActionDef,
                 grounded: GroundedAction) -> Step:
    """Compile `action` for `grounded`. It trusts the reader: every check
    and effect template of an action `action_from_json` read resolves."""
    bound = dict(grounded.bindings)
    tests = []
    for cond in action.preconditions:
        ident = bound.get(cond["param"]) if "param" in cond else None
        form = _CHECKS[cond["check"]](world, cond, ident, grounded)
        if form is not None:
            tests.append((form, cond["fail"]))

    def resolve(name: str) -> str:
        return name if name in (PLAYER, INVENTORY) else bound.get(name, name)

    def effect(template: tuple[str, ...]) -> Fact | str:
        kind = template[0]
        if kind == "fact":
            return Fact(template[1], tuple([resolve(a) for a in template[2:]]))
        if kind == "location_of":
            return resolve(template[1])
        if kind == "placement":
            item, target = resolve(template[1]), resolve(template[2])
            return Fact("in" if world.is_container(target) else "on",
                        (item, target))
        return PLAYER  # player_at

    removes = [effect(t) for t in action.removes]
    return Step(grounded, tuple(tests),
                frozenset(f for f in removes if isinstance(f, Fact)),
                frozenset(map(effect, action.adds)),
                tuple(f for f in removes if not isinstance(f, Fact)))


def action_from_json(row, unary: Collection[str],
                     ids: Iterable[str] = ()) -> ActionDef:
    """The one reader of an action row, bundled, stored or generated, and so
    the one maker of an `ActionDef`. A fact effect may name a state of
    `unary`, and any effect the action's parameters, `player`, `inventory`
    and `ids`. ValueError naming the verb and either the field that no turn
    could use or render or the check that no turn could decide or report."""
    verb = row.get("verb") if isinstance(row, dict) else None
    if not isinstance(verb, str):
        raise ValueError(f"{row!r} is not an action with a string verb")

    def expect(field, ok, expected):
        if not ok:
            raise ValueError(f"action {verb!r}, {field}: "
                             f"{row.get(field)!r} is not {expected}")

    params = row.get("params", [])
    expect("params", isinstance(params, list) and all(
        isinstance(p, dict) and isinstance(p.get("name"), str)
        and p.get("trait") in PARAM_TRAITS
        and isinstance(p.get("optional", False), bool) for p in params),
        "a list of parameters, each a name and a known trait")
    names = [p["name"] for p in params]
    try:
        snippet_verb, slots = _compile_snippet(row.get("grammar"))
    except (TypeError, IndexError, ValueError):
        snippet_verb, slots = None, ()
    expect("grammar", snippet_verb == verb and all(
        s.param in names for s in slots),
        "a snippet that starts with the verb and names only its parameters")
    flags = row.get("flags")
    expect("flags", isinstance(flags, dict)
           and set(flags) == {f.name for f in fields(ActionFlags)}
           and all(type(v) is bool for v in flags.values()),
           "a map of epistemic, pragmatic and replaceable to bools")
    feedback = row.get("feedback")
    expect("feedback", isinstance(feedback, dict) and "success" in feedback
           and all(isinstance(k, str) and isinstance(v, str)
                   for k, v in feedback.items()),
           "a map of strings to strings with a success template")
    effects = row.get("effects", {})
    known = {PLAYER, INVENTORY, *names, *ids}
    expect("effects", isinstance(effects, dict) and all(
        isinstance(effects[key], list) and all(
            _known_effect(t, key == "adds", unary, known)
            for t in effects[key])
        for key in ("removes", "adds") if key in effects),
        "removes and adds of effect templates that resolve to valid facts")
    conds = row.get("preconditions", [])
    expect("preconditions", isinstance(conds, list), "a list")
    for cond in conds:
        check = cond.get("check") if isinstance(cond, dict) else None
        where = f"action {verb!r}, precondition check {check!r}"
        if not isinstance(check, str) or check not in _CHECKS:
            raise ValueError(f"{where}: not a known check")
        tested = {"has_state": "state", "not_has_state": "state",
                  "is_entity": "entity"}.get(check)
        if tested is not None and not isinstance(cond.get(tested), str):
            raise ValueError(f"{where}: {tested} is not a string")
        for key in ("param", "source"):
            if key in cond and cond[key] not in names:
                raise ValueError(f"{where}: {key} {cond[key]!r} is not a "
                                 "parameter of the action")
        if cond.get("fail") not in list(feedback):
            raise ValueError(f"{where}: failure kind {cond.get('fail')!r} "
                             "has no feedback template")
    # a template names only what each turn that renders it binds
    # (`Engine._feedback_bindings`; `_success_feedback` for success)
    required = {p["name"] for p in params if not p.get("optional", False)}
    seen = {c.get("param") for c in conds
            if c["check"] in ("visible_here", "accessible_here")}
    for kind, template in feedback.items():
        bound = required | ({"prep"} if "target" in required else set())
        if kind == "success":
            bound |= {"room_description"} | (
                {"contents"} if "item" in required else set()) | (
                {"entity_description"} if "item" in required & seen else set())
        elif all(c["check"] == "inventory_space"
                 for c in conds if c["fail"] == kind):
            bound |= {"limit"}
        try:  # as a turn renders it, with only the names bound
            template.format_map(dict.fromkeys(bound, ""))
        except (AttributeError, LookupError, TypeError, ValueError):
            expect("feedback", False,
                   f"a map whose {kind!r} template names only {sorted(bound)}")
    # a unary state may be added only to what a precondition shows not to
    # hold it: `apply_delta` refuses to add a fact that is already held
    removes = effects.get("removes", [])
    for template in effects.get("adds", []):
        if template[0] == "fact" and len(template) == 3:
            _, state, target = template
            if not any(cond.get("param") == target and (
                    cond["check"] == "not_has_state" and cond["state"] == state
                    or cond["check"] == "has_state" and cond["state"] != state
                    and ["fact", cond["state"], target] in removes)
                    for cond in conds):
                raise ValueError(
                    f"action {verb!r}, effects: adds {state}({target}), but no "
                    f"precondition rules out that {target} holds it already "
                    f"(not_has_state {state}, or has_state of a state the "
                    "action removes)")
    return ActionDef(
        verb=verb,
        params=tuple(Param(p["name"], p["trait"], p.get("optional", False))
                     for p in params),
        grammar=row["grammar"],
        flags=ActionFlags(**flags),
        preconditions=tuple(conds),
        removes=tuple(tuple(t) for t in effects.get("removes", ())),
        adds=tuple(tuple(t) for t in effects.get("adds", ())),
        feedback=dict(feedback),
        explanation=row.get("explanation"),
    )


def _known_effect(template, adding: bool, unary: Collection[str],
                  known: set[str]) -> bool:
    """Whether `compile_step` resolves the template, and to a fact of a
    known predicate and arity other than ``connects`` or, outside `adding`,
    a location read from the state, with every argument in `known`."""
    if not (isinstance(template, list) and template
            and all(isinstance(t, str) for t in template)):
        return False
    kind, *args = template
    arity = {"placement": 2, "location_of": 1, "player_at": 0}.get(kind)
    if kind == "fact" and args:
        predicate, *args = args
        arity = (2 if predicate in ("at", "on", "in")
                 else 1 if predicate in unary else None)
    elif adding and kind != "placement":
        return False
    return len(args) == arity and known.issuperset(args)


@cache
def load_standard_actions() -> tuple[ActionDef, ...]:
    try:
        return tuple(action_from_json(row, ("open", "closed"))
                     for row in load_data("actions.json")["actions"])
    except ValueError as exc:
        raise ValueError(f"actions.json: {exc}") from exc


@cache
def staple_verbs() -> tuple[str, ...]:
    """The bundled verbs in catalogue order, as household instances use them."""
    return tuple(a.verb for a in load_standard_actions())


@dataclass(frozen=True)
class Lexicon:
    """Bijective surface-word substitution (pseudo-word experiments)."""

    nouns: Mapping[str, str] = field(default_factory=dict)
    verbs: Mapping[str, str] = field(default_factory=dict)
    adjectives: Mapping[str, str] = field(default_factory=dict)
    explanations: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            for word, value in getattr(self, name).items():
                if not (isinstance(word, str) and isinstance(value, str)
                        and value):
                    raise ValueError(f"{name}: {word!r} maps to {value!r}, "
                                     "not a non-empty string")
        replaced = list(self.nouns) + list(self.verbs) + list(self.adjectives)
        for word in replaced:
            if word in FUNCTION_WORDS:
                raise ValueError(f"function word {word!r} cannot be replaced")
        values = (list(self.nouns.values()) + list(self.verbs.values())
                  + list(self.adjectives.values()))
        if len(set(values)) != len(values):
            raise ValueError("pseudo-words must be pairwise distinct")

    def noun(self, base: str) -> str:
        return self.nouns.get(base, base)

    def verb(self, base: str) -> str:
        return self.verbs.get(base, base)

    def adjective(self, base: str) -> str:
        return self.adjectives.get(base, base)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: Mapping) -> "Lexicon":
        return Lexicon(*(dict(data.get(f.name, {})) for f in fields(Lexicon)))


@dataclass(frozen=True)
class ParsedCommand:
    verb: str
    noun_phrases: tuple[str, ...]
    preposition: str | None = None


@dataclass(frozen=True)
class GroundedAction:
    action: str  # ActionDef verb id
    bindings: tuple[tuple[str, str], ...]  # (param name, entity/room id)

    def get(self, name: str) -> str | None:
        for key, value in self.bindings:
            if key == name:
                return value
        return None


@dataclass(frozen=True)
class _Slot:
    param: str
    preps: tuple[str, ...]  # words captured (not skipped) before this slot
    optional: bool  # slot present only when introduced by its prep


_SNIPPET_TOKEN_RE = re.compile(r"\[[^\]]+\]|<\w+>|\w+")


# each loaded instance keeps its parser; parsers share one shape per snippet
@cache
def _compile_snippet(snippet: str) -> tuple[str, tuple[_Slot, ...]]:
    """Compile a grammar snippet like ``put <item> [on|in] <target>``."""
    tokens = _SNIPPET_TOKEN_RE.findall(snippet)
    verb = tokens[0]
    slots: list[_Slot] = []
    pending_preps: tuple[str, ...] = ()
    for tok in tokens[1:]:
        if tok.startswith("<") and tok.endswith(">"):
            slots.append(_Slot(tok[1:-1], pending_preps, False))
            pending_preps = ()
        elif tok.startswith("[") and "<" in tok:
            # "[from <source>]": optional slot introduced by its preposition
            prep, name = tok[1:-1].split(" <")
            slots.append(_Slot(name.rstrip(">"), (prep,), True))
        elif tok.startswith("["):
            # "[on|in]": optional preposition before the next slot
            pending_preps = tuple(tok[1:-1].split("|"))
        else:
            raise ValueError(f"bad grammar snippet token {tok!r} in {snippet!r}")
    return verb, tuple(slots)


def _clean(line: str) -> list[str]:
    line = line.strip().lower()
    while line and line[-1] in ".!":
        line = line[:-1].strip()
    return line.split()


class Parser:
    """Immutable command parser for one action set and lexicon over one
    world, whose rooms, entities and inventory are its nouns."""

    def __init__(self, actions: Iterable[ActionDef], lexicon: Lexicon,
                 world: WorldDef):
        self.lexicon = lexicon
        self.world = world
        self.actions: dict[str, ActionDef] = {}
        self.surface_verbs: dict[str, str] = {}  # surface verb -> verb id
        self.shapes: dict[str, tuple[_Slot, ...]] = {}
        for action in actions:
            surface = lexicon.verb(action.verb)
            if surface in self.surface_verbs:
                raise DuplicateVerb(surface)
            self.actions[action.verb] = action
            self.surface_verbs[surface] = action.verb
            self.shapes[action.verb] = _compile_snippet(action.grammar)[1]
        if not self.actions:
            raise ValueError("empty action set")

        self.noun_to_ids: dict[str, tuple[str, ...]] = {}  # tuples: smaller than lists
        for ident in (*world.entities, *world.rooms, INVENTORY):
            noun = self.surface_of(ident)
            self.noun_to_ids[noun] = self.noun_to_ids.get(noun, ()) + (ident,)
        # longest first so "side table" wins over "table"
        self.noun_phrases = sorted(self.noun_to_ids,
                                   key=lambda s: (-len(s.split()), s))

    def surface_of(self, ident: str) -> str:
        return self.lexicon.noun(self.world.noun_of(ident))

    def parse(self, line: str) -> ParsedCommand:
        """Parse one command line (without the leading ``>``)."""
        tokens = _clean(line)
        if not tokens:
            raise ParseFailure("malformed", line.strip())
        surface_verb = tokens[0]
        verb_id = self.surface_verbs.get(surface_verb)
        if verb_id is None:
            raise ParseFailure("unknown-verb", surface_verb)
        slots = self.shapes[verb_id]
        rest = tokens[1:]
        phrases: list[str] = []
        prep: str | None = None
        pos = 0
        for slot in slots:
            captured = None
            # skip function words, capturing one of this slot's prepositions
            while pos < len(rest):
                word = rest[pos]
                if word in slot.preps:
                    captured = word
                    pos += 1
                    continue
                if word in FUNCTION_WORDS:
                    pos += 1
                    continue
                break
            if slot.optional and captured is None:
                continue
            if pos >= len(rest):
                raise ParseFailure("malformed", surface_verb)
            if captured is not None:
                prep = prep or captured
            phrase, pos = self._match_noun_phrase(rest, pos)
            phrases.append(phrase)
        if pos != len(rest):
            raise ParseFailure("malformed", surface_verb)
        return ParsedCommand(surface_verb, tuple(phrases), prep)

    def _match_noun_phrase(self, tokens: list[str], pos: int) -> tuple[str, int]:
        for candidate in self.noun_phrases:
            if tokens[pos] not in candidate:  # it cannot match; spare the split
                continue
            words = candidate.split()
            if tokens[pos:pos + len(words)] == words:
                return candidate, pos + len(words)
        # unknown noun: consume up to the next function word (resolution
        # will report it); `parse` leaves `pos` on a word that is none
        end = pos
        while end < len(tokens) and tokens[end] not in FUNCTION_WORDS:
            end += 1
        return " ".join(tokens[pos:end]), end

    def ground(self, cmd: ParsedCommand) -> GroundedAction:
        """Resolve surface noun phrases to ids and check trait requirements."""
        world = self.world
        verb_id = self.surface_verbs[cmd.verb]
        action = self.actions[verb_id]
        bindings: list[tuple[str, str]] = []
        phrases = list(cmd.noun_phrases)
        params = [p for p in action.params if not p.optional]
        optionals = [p for p in action.params if p.optional]
        wanted = params + optionals[: max(0, len(phrases) - len(params))]
        for param, phrase in zip(wanted, phrases):
            ids = self.noun_to_ids.get(phrase)
            if not ids:
                raise GroundFailure("unknown-entity", phrase, cmd.verb)
            if len(ids) > 1:
                raise GroundFailure("ambiguous", phrase, cmd.verb)
            ident = ids[0]
            if not fits_trait(world, ident, param.trait):
                raise GroundFailure("trait-mismatch", phrase, cmd.verb)
            bindings.append((param.name, ident))
        if verb_id == "put" and cmd.preposition in ("on", "in"):
            target = dict(bindings).get("target")
            required = "in" if world.is_container(target) else "on"
            if cmd.preposition != required:
                raise GroundFailure("prep-mismatch",
                                    self.surface_of(target), cmd.verb)
        return GroundedAction(verb_id, tuple(bindings))

    def render(self, grounded: GroundedAction) -> str:
        """Canonical command text for a grounded action, and the one judge
        of a command: the text is returned only when this parser parses and
        grounds it back to the same verb and bindings, in any order.
        ValueError naming the action and the text otherwise."""
        verb = grounded.action
        words = [self.lexicon.verb(verb)]
        for slot in self.shapes.get(verb, ()):
            value = grounded.get(slot.param)
            if value is None:
                continue
            if slot.optional:
                words.append(slot.preps[0])
            elif verb == "put" and slot.param == "target":
                words.append("in" if self.world.is_container(value) else "on")
            words.append(self.surface_of(value))
        text = " ".join(words)
        try:
            again = self.ground(self.parse(text))
        except (ParseFailure, GroundFailure) as exc:
            raise ValueError(f"{grounded} renders as {text!r}, which "
                             f"fails: {exc}") from exc
        if again.action != verb or sorted(again.bindings) != sorted(
                grounded.bindings):
            raise ValueError(f"{grounded} renders as {text!r}, which reads "
                             f"back as {again}")
        return text


# the traits a parameter may require: `fits_trait`'s own and the entity traits
PARAM_TRAITS = frozenset({"room", "location", "thing", "receptacle", "container",
                          "openable", "room-fixture", "support", "takeable"})


def fits_trait(world: WorldDef, ident: str, trait: str) -> bool:
    """Whether the id may fill a parameter of the trait: the one rule for
    both grounding a command and listing the planner's candidates."""
    if trait == "room":
        return ident in world.rooms
    if trait == "location":
        return (ident in world.rooms or world.is_container(ident)
                or world.is_support(ident))
    if ident in world.rooms:
        return False
    if trait == "thing":
        return ident in world.entities or ident == INVENTORY
    if trait == "receptacle":
        return world.is_container(ident) or world.is_support(ident)
    return world.has_trait(ident, trait)


def build_parser(actions: Iterable[ActionDef], lexicon: Lexicon,
                 world: WorldDef) -> Parser:
    """Assemble the command parser for an action set under a lexicon, with
    the nouns of `world`'s rooms and entities and the inventory's. Raises
    DuplicateVerb when two verbs collide after substitution."""
    return Parser(actions, lexicon, world)
