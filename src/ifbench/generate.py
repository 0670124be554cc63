"""Seeded generation of the nine experiment families (16 instances each).

Seeding scheme: instance rng = Rng([base_seed, family_index, instance_index]),
numpy's default_rng in the standard library, with family_index taken from
FAMILIES order. Identical seeds reproduce byte-identical instance files.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from itertools import permutations, product

from .grammar import (Lexicon, action_from_json, load_standard_actions,
                      staple_verbs)
from .instance import FAMILIES, INSTANCES_PER_FAMILY, Instance
from .interpreter import TURN_LIMIT
from .planner import Unsolvable, solve_optimal
from .pseudowords import PseudowordMaker
from .world import (ENGINE_PREDICATES, EntityDef, GoalCondition, RoomDef,
                    StateGroup, fact, load_entity_catalogue,
                    load_room_catalogue, room_distances, room_exits)

INVENTORY_LIMIT = 2
GOAL_COUNT = 3

_MAX_INSTANCE_ATTEMPTS = 200
_MAX_GOAL_ATTEMPTS = 500


class GenerationExhausted(Exception):
    """Bounded resampling ran out; difficulty parameters are over-constrained."""


class WalkNotFound(Exception):
    """No <= 8 step closed walk covers the required rooms."""


# -- random stream --------------------------------------------------------------
# numpy.random.default_rng(entropy), draw for draw: SeedSequence hashing,
# PCG64 (a 128-bit LCG with XSL-RR output; O'Neill 2014) and Lemire's bounded
# integers over buffered 32-bit draws (Lemire 2019, ACM TOMACS 29(1)).

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list[int]:
    """A seed int, or a sequence of them, as 32-bit words, low word first."""
    if not isinstance(entropy, int):
        return [w for part in entropy for w in _entropy_words(part)]
    if entropy < 0:
        raise ValueError(f"negative seed {entropy}")
    return [entropy >> s & _M32 for s in range(0, entropy.bit_length() or 1, 32)]


def _seed_state(entropy) -> list[int]:
    """SeedSequence(entropy).generate_state(8): the entropy words hashed into
    a 4-word pool, then drawn out as eight 32-bit words."""
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        const, value = const * mult & _M32, value ^ const
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    words = _entropy_words(entropy)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    return [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]


class Rng:
    """`numpy.random.default_rng(entropy)`, draw for draw, for what ifbench
    draws: `integers(n)` for 1 <= n < 2**32, by multiply-and-reject on 32-bit
    draws, and `random()`, from the top 53 bits of a 64-bit draw."""

    def __init__(self, entropy):
        w = _seed_state(entropy)
        seed = (w[1] << 32 | w[0]) << 64 | w[3] << 32 | w[2]
        self._inc = (((w[5] << 32 | w[4]) << 64 | w[7] << 32 | w[6]) << 1 | 1) & _M128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _M128
        self._spare = None  # the unused upper half of the last 64-bit draw

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        value, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def _next32(self) -> int:
        spare, self._spare = self._spare, None
        if spare is None:
            spare = self._next64()
            self._spare = spare >> 32
        return spare & _M32

    def integers(self, n: int) -> int:
        if not 1 <= n <= _M32:
            raise ValueError(f"integers({n}): n must be in [1, 2**32)")
        if n == 1:
            return 0
        m, threshold = self._next32() * n, ((1 << 32) - n) % n
        while m & _M32 < threshold:
            m = self._next32() * n
        return m >> 32

    def random(self) -> float:
        return (self._next64() >> 11) / (1 << 53)


def _choice(rng, seq):
    return seq[rng.integers(len(seq))]


def _sample(rng, seq, k):
    pool = list(seq)
    out = []
    for _ in range(k):
        out.append(pool.pop(rng.integers(len(pool))))
    return out


def _shuffled(rng, seq):
    return _sample(rng, seq, len(seq))


# -- room graph --------------------------------------------------------------

def _allowed_edges(rooms: dict[str, RoomDef]) -> list[tuple[str, str]]:
    edges = set()
    for rid, room in rooms.items():
        for other in room.allowed_adjacent:
            edges.add(tuple(sorted((rid, other))))
    return sorted(edges)


def _sample_room_graph(rng, rooms: dict[str, RoomDef]) -> tuple[tuple[str, str], ...]:
    """Random connected subgraph of the catalogue allowances: a random
    spanning tree plus each remaining allowed edge with probability 1/2."""
    allowed = _allowed_edges(rooms)
    parent = {r: r for r in rooms}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for a, b in _shuffled(rng, allowed):
        if find(a) != find(b):
            parent[find(a)] = find(b)
            chosen.append((a, b))
    for edge in allowed:
        if edge not in chosen and rng.random() < 0.5:
            chosen.append(edge)
    return tuple(sorted(chosen))


# -- basic instances ---------------------------------------------------------

def _start_rooms(inst: Instance) -> dict[str, str]:
    """The room each entity starts in: its holder's if it is on or in one."""
    rooms = {f.args[0]: f.args[1] for f in inst.initial_facts
             if f.predicate == "at"}
    for f in inst.initial_facts:
        if f.predicate in ("on", "in"):
            rooms[f.args[0]] = rooms[f.args[1]]
    return rooms


def generate_basic(rng, difficulty: str, limit: int | None = None) -> Instance:
    """One delivery instance over the full household catalogue whose optimal
    plan, under inventory limit `limit` (None for no limit), fits the turn
    limit. Only the instance with the limit is searched."""
    rooms = load_room_catalogue()
    entities = load_entity_catalogue()
    receptacles = sorted(e for e in entities
                         if "room-fixture" in entities[e].traits)
    containers = sorted(e for e in receptacles
                        if "container" in entities[e].traits)
    supports = sorted(e for e in receptacles
                      if "support" in entities[e].traits)
    takeables = sorted(e for e in entities
                       if "takeable" in entities[e].traits)

    for _ in range(_MAX_INSTANCE_ATTEMPTS):
        connections = _sample_room_graph(rng, rooms)
        adj = room_exits(rooms, connections)
        placement = {r: _choice(rng, sorted(entities[r].allowed_rooms))
                     for r in receptacles}
        goals_spec = _sample_goals(rng, difficulty, adj, placement,
                                   entities, supports, containers, takeables)
        if goals_spec is None:
            continue

        facts = [fact("at", "player", _choice(rng, sorted(rooms)))]
        facts += [fact("at", r, placement[r]) for r in receptacles]
        container_state = {c: _choice(rng, ["closed", "open"])
                           for c in containers}
        goal_items = set()
        goals = []
        for item, target, where in goals_spec:
            goal_items.add(item)
            if difficulty == "hard":
                container_state[where] = "closed"
                facts.append(fact("in", item, where))
            elif where in supports:
                facts.append(fact("on", item, where))
            else:
                facts.append(fact("at", item, where))
            prep = "in" if "container" in entities[target].traits else "on"
            goals.append(GoalCondition("placement", fact(prep, item, target)))
        facts += [fact(container_state[c], c) for c in containers]
        for item in takeables:
            if item in goal_items:
                continue
            room = _choice(rng, sorted(entities[item].allowed_rooms))
            spots = (["floor"]
                     + [s for s in supports if placement[s] == room]
                     + [c for c in containers if placement[c] == room])
            spot = _choice(rng, spots)
            if spot == "floor":
                facts.append(fact("at", item, room))
            elif spot in supports:
                facts.append(fact("on", item, spot))
            else:
                facts.append(fact("in", item, spot))

        groups = tuple(StateGroup(c, ("open", "closed"), container_state[c])
                       for c in containers)
        inst = Instance(
            id="", family=f"basic-{difficulty}",
            rooms=tuple(rooms[r] for r in sorted(rooms)),
            connections=connections,
            entities=tuple(entities[e] for e in sorted(entities)),
            state_groups=groups,
            initial_facts=tuple(facts),
            goals=tuple(goals),
            inventory_limit=limit,
            lexicon=None,
            base_verbs=staple_verbs(),
            extra_actions=(),
            preexploration=None,
            prompt="",
            optimal_plan=None,
        )
        try:
            plan = solve_optimal(inst)
        except Unsolvable:
            continue
        if plan.length > TURN_LIMIT:
            continue
        # set in place: neither field is read by the engine or the start
        # state the search built, so the instance keeps them
        inst.prompt = inst.engine.prompt(inst.start_state(), inst.engine.new_words)
        inst.optimal_plan = plan.actions
        return inst
    raise GenerationExhausted(f"basic-{difficulty}")


def _sample_goals(rng, difficulty, adj, placement, entities,
                  supports, containers, takeables):
    """Three (item, target, where) triples meeting the difficulty's
    constraints, or None when sampling keeps failing."""
    for _ in range(_MAX_GOAL_ATTEMPTS):
        items = _sample(rng, takeables, GOAL_COUNT)
        if difficulty == "easy":
            targets = [_choice(rng, supports) for _ in range(GOAL_COUNT)]
            spec = []
            for item, target in zip(items, targets):
                near = {placement[target]} | set(adj[placement[target]])
                options = sorted(near & entities[item].allowed_rooms)
                if not options:
                    break
                room = _choice(rng, options)
                spots = ["floor"] + [s for s in supports
                                     if placement[s] == room and s != target]
                spot = _choice(rng, spots)
                spec.append((item, target, room if spot == "floor" else spot))
            else:
                return spec
        else:
            targets = _sample(rng, supports, GOAL_COUNT)
            hiders = _sample(rng, containers, GOAL_COUNT)
            spec = []
            for item, target, hider in zip(items, targets, hiders):
                c_room = placement[hider]
                if (c_room not in entities[item].allowed_rooms
                        or room_distances(adj, c_room).get(placement[target], 99) < 2):
                    break
                spec.append((item, target, hider))
            else:
                return spec
    return None


# -- variants ----------------------------------------------------------------

def generate_preexploration(inst: Instance) -> Instance:
    """Prepend a 6-8 step closed `go` walk that visits every room holding a
    goal object (or its container) and every target receptacle, with the
    feedback that `Engine.walk` gives it."""
    rooms = _start_rooms(inst)
    required = {rooms[ident] for goal in inst.goals for ident in goal.fact.args}
    state = inst.start_state()
    start = state.player_room
    adj = inst.world.exits

    walk = _covering_closed_walk(adj, start, required)
    if walk is None or len(walk) > 8:
        raise WalkNotFound(inst.id)
    pad_room = adj[start][0]
    while len(walk) < 6:
        walk = walk + [pad_room, start]

    commands = [f"> go {inst.engine.parser.surface_of(room)}" for room in walk]
    _, records = inst.engine.walk(state, commands)
    return replace(inst, preexploration=tuple(
        (command, record.feedback) for command, record in zip(commands, records)))


def _covering_closed_walk(adj, start, required) -> list[str] | None:
    """Shortest closed walk from `start` visiting all `required` rooms."""
    required = frozenset(required)
    covered0 = frozenset({start}) & required
    if covered0 == required:
        return []
    seen = {(start, covered0)}
    queue = deque([(start, covered0, [])])
    while queue:
        room, covered, path = queue.popleft()
        for nxt in adj[room]:
            nxt_cov = covered | ({nxt} & required)
            nxt_path = path + [nxt]
            if nxt == start and nxt_cov == required:
                return nxt_path
            if len(nxt_path) >= 8:
                continue
            key = (nxt, nxt_cov)
            if key not in seen:
                seen.add(key)
                queue.append((nxt, nxt_cov, nxt_path))
    return None


# -- synthetic word experiments -----------------------------------------------

def catalogue_vocabulary() -> set[str]:
    """Every live surface word of the base domain (multiword nouns are also
    split so no pseudo-word collides with a part of one)."""
    words = {"player", "inventory"}
    words.update(staple_verbs())
    for e in load_entity_catalogue().values():
        words.update(e.noun.split())
        words.add(e.noun)
    for r in load_room_catalogue().values():
        words.update(r.noun.split())
        words.add(r.noun)
    return words


def _synthesize_easy(rng, base: Instance) -> Instance:
    maker = PseudowordMaker(rng, forbidden=catalogue_vocabulary())
    world = base.world
    goal = base.goals[rng.integers(len(base.goals))]
    item, target = goal.fact.args
    item_room = _start_rooms(base)[item]
    nouns = {}
    for ident in (item, target, item_room):
        nouns[world.noun_of(ident)] = maker.make()
    replaceable = {a.verb: a for a in base.actions if a.flags.replaceable}
    verb = _choice(rng, sorted(replaceable))
    pseudo_verb = maker.make()
    action = replaceable[verb]
    explanation = action.explanation.format(word=pseudo_verb)
    lexicon = Lexicon(nouns=nouns, verbs={verb: pseudo_verb},
                      explanations={verb: explanation})
    inst = replace(base, family="synthetic-easy", lexicon=lexicon)
    inst.prompt = inst.engine.prompt(inst.start_state(), inst.engine.new_words)
    return inst


def _synthesize_medium(rng, base: Instance) -> Instance:
    maker = PseudowordMaker(rng, forbidden=catalogue_vocabulary())
    world = base.world
    chosen: list[str] = []
    for goal in base.goals:
        for ident in goal.fact.args:
            noun = world.noun_of(ident)
            if noun not in chosen:
                chosen.append(noun)
    pool = sorted({e.noun for e in base.entities}
                  | {r.noun for r in base.rooms})
    pool = [n for n in pool if n not in chosen]
    while len(chosen) < 9:
        chosen.append(pool.pop(rng.integers(len(pool))))
    verbs = _sample(rng, sorted(a.verb for a in base.actions
                                if a.flags.replaceable), 3)
    lexicon = Lexicon(nouns={n: maker.make() for n in chosen},
                      verbs={v: maker.make() for v in verbs})
    inst = replace(base, family="synthetic-medium", lexicon=lexicon)
    inst.prompt = inst.engine.prompt(inst.start_state(), list(lexicon.verbs.values()))
    return inst


def _synthesize_hard(rng) -> Instance:
    """Four pseudo-named rooms in a line; three objects with 1/2/3-state
    machines driven by pseudo transition verbs; goals are terminal states."""
    rooms = load_room_catalogue()
    paths = _linear_paths(rooms, 4)
    path = list(_choice(rng, paths))
    maker = PseudowordMaker(rng, forbidden=catalogue_vocabulary() | ENGINE_PREDICATES)

    room_defs = tuple(rooms[r] for r in sorted(path))
    connections = tuple(sorted(tuple(sorted((a, b)))
                               for a, b in zip(path, path[1:])))
    noun_map = {rooms[r].noun: maker.make() for r in sorted(path)}

    entities = []
    groups = []
    actions = []
    goals = []
    facts = [fact("at", "player", _choice(rng, sorted(path)))]
    # one single-state, one binary, one ternary object
    for idx, n_states in enumerate((1, 2, 3), start=1):
        obj = f"obj{idx}"
        noun = maker.make()
        room = _choice(rng, sorted(path))
        entities.append(EntityDef(obj, noun, frozenset(), frozenset({room})))
        facts.append(fact("at", obj, room))
        states = tuple(maker.make() for _ in range(n_states))
        initial = None if n_states == 1 else states[0]
        groups.append(StateGroup(obj, states, initial))
        if initial is not None:
            facts.append(fact(initial, obj))
        goals.append(GoalCondition("entity-state", fact(states[-1], obj)))
        # single-state objects transition from "no state" into their goal
        chain = ([None] + list(states)) if n_states == 1 else list(states)
        for from_state, to_state in zip(chain, chain[1:]):
            verb = maker.make()
            guard = ({"check": "not_has_state", "param": "item",
                      "state": to_state, "fail": "already"}
                     if from_state is None else
                     {"check": "has_state", "param": "item",
                      "state": from_state, "fail": "no_effect"})
            # the row `save_instances` writes, read as loading reads it
            actions.append(action_from_json({
                "verb": verb,
                "params": [{"name": "item", "trait": "thing", "optional": False}],
                "grammar": f"{verb} <item>",
                "flags": {"epistemic": False, "pragmatic": True, "replaceable": False},
                "preconditions": [
                    {"check": "accessible_here", "param": "item", "fail": "not_here"},
                    {"check": "is_entity", "param": "item", "entity": obj,
                     "fail": "no_effect"},
                    guard],
                "effects": {"removes": [] if from_state is None else [
                                ["fact", from_state, "item"]],
                            "adds": [["fact", to_state, "item"]]},
                "feedback": {
                    "success": f"The {{item}} is now {to_state}.",
                    "not_here": "You don't see a {item} here.",
                    "no_effect": "Nothing happens to the {item}.",
                    "already": f"The {{item}} is already {to_state}.",
                },
            }, states))

    inst = Instance(
        id="", family="synthetic-hard",
        rooms=room_defs,
        connections=connections,
        entities=tuple(entities),
        state_groups=tuple(groups),
        initial_facts=tuple(facts),
        goals=tuple(goals),
        inventory_limit=None,
        lexicon=Lexicon(nouns=noun_map),
        base_verbs=tuple(a.verb for a in load_standard_actions()
                         if not a.flags.replaceable),
        extra_actions=tuple(actions),
        preexploration=None,
        prompt="",
        optimal_plan=None,
    )
    new_words = _shuffled(rng, inst.engine.new_words)
    inst.optimal_plan = solve_optimal(inst).actions
    inst.prompt = inst.engine.prompt(inst.start_state(), new_words)
    return inst


def _linear_paths(rooms: dict[str, RoomDef], length: int) -> list[tuple[str, ...]]:
    """All simple paths of `length` rooms within catalogue allowances,
    deduplicated up to reversal."""
    paths = set()

    def extend(path):
        if len(path) == length:
            canonical = min(tuple(path), tuple(reversed(path)))
            paths.add(canonical)
            return
        for nxt in sorted(rooms[path[-1]].allowed_adjacent):
            if nxt not in path:
                extend(path + [nxt])

    for r in sorted(rooms):
        extend([r])
    return sorted(paths)


# -- family driver -------------------------------------------------------------

def generate_family(base_seed: int, family: str,
                    count: int = INSTANCES_PER_FAMILY) -> list[Instance]:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    family_index = FAMILIES.index(family)
    out = []
    for idx in range(count):
        rng = Rng([base_seed, family_index, idx])
        seed_path = (base_seed, family_index, idx)
        if family in ("basic-easy", "basic-hard"):
            inst = generate_basic(rng, family.split("-")[1])
        elif family in ("limit-easy", "limit-hard"):
            inst = generate_basic(rng, family.split("-")[1], INVENTORY_LIMIT)
        elif family in ("preexplore-easy", "preexplore-hard"):
            for _ in range(_MAX_INSTANCE_ATTEMPTS):
                base = generate_basic(rng, family.split("-")[1])
                try:
                    inst = generate_preexploration(base)
                    break
                except WalkNotFound:
                    continue
            else:
                raise GenerationExhausted(family)
        elif family == "synthetic-easy":
            inst = _synthesize_easy(rng, generate_basic(rng, "easy"))
        elif family == "synthetic-medium":
            inst = _synthesize_medium(rng, generate_basic(rng, "easy"))
        else:
            inst = _synthesize_hard(rng)
        out.append(replace(inst, id=f"{family}-{idx:02d}", family=family,
                           seed_path=seed_path))
    return out
