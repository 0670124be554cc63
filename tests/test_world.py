import json

import pytest
from hypothesis import given, settings, strategies as st

import ifbench.world
from ifbench import (InvariantViolation, apply_delta, check_goals, fact,
                     load_entity_catalogue, load_room_catalogue, parse_fact,
                     visible_facts)
from ifbench.grammar import GroundedAction
from ifbench.interpreter import Engine
from ifbench.world import (CONNECTS, INVENTORY, PLAYER, EntityDef, Fact,
                           GoalCondition, StateGroup, WorldState, room_exits,
                           state_to_json, validate_state)
from oracles import (micro_instance, reference_visible,
                     reference_visible_entities)


@pytest.fixture
def kitchen():
    inst = micro_instance(
        rooms=["kitchen", "pantry", "bedroom"],
        connections=[("kitchen", "pantry"), ("pantry", "bedroom")],
        entities=[("counter", "support", ["kitchen"]),
                  ("cupboard", "container", ["kitchen"]),
                  ("table", "support", ["pantry"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("sandwich", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "at(cupboard,kitchen)", "closed(cupboard)", "at(table,pantry)",
               "on(plate,counter)", "in(sandwich,cupboard)"],
        goals=["on(plate,table)", "on(sandwich,table)"])
    return inst.world, inst.start_state()


def test_apply_delta_open_toggle(kitchen):
    world, state = kitchen
    out = apply_delta(world, state, {fact("closed", "cupboard")},
                      {fact("open", "cupboard")})
    assert fact("open", "cupboard") in out.facts
    assert fact("closed", "cupboard") not in out.facts


def test_apply_delta_take_moves_location_fact(kitchen):
    world, state = kitchen
    out = apply_delta(world, state, {fact("on", "plate", "counter")},
                      {fact("in", "plate", "inventory")})
    assert fact("in", "plate", "inventory") in out.facts
    assert out.inventory == ("plate",)


def test_apply_delta_identity(kitchen):
    world, state = kitchen
    assert apply_delta(world, state, set(), set()) == state


def test_apply_delta_rejects_unknown_removes(kitchen):
    world, state = kitchen
    with pytest.raises(InvariantViolation):
        apply_delta(world, state, {fact("on", "plate", "table")}, set())


def test_apply_delta_rejects_duplicate_location(kitchen):
    world, state = kitchen
    with pytest.raises(InvariantViolation):
        apply_delta(world, state, set(), {fact("in", "plate", "inventory")})


def test_apply_delta_rejects_double_container_state(kitchen):
    world, state = kitchen
    with pytest.raises(InvariantViolation):
        apply_delta(world, state, set(), {fact("open", "cupboard")})


@pytest.mark.parametrize("removes, adds, message", [
    (["open(cupboard)"], [], "removes not in state"),
    ([], ["closed(cupboard)"], "adds already present"),
])
def test_apply_delta_rejects_a_delta_that_does_not_fit(kitchen, removes, adds,
                                                       message):
    world, state = kitchen  # the cupboard is closed
    with pytest.raises(InvariantViolation, match=message):
        apply_delta(world, state, {parse_fact(f) for f in removes},
                    {parse_fact(f) for f in adds})


def test_apply_delta_reversible(kitchen):
    world, state = kitchen
    removes = {fact("on", "plate", "counter")}
    adds = {fact("in", "plate", "inventory")}
    forward = apply_delta(world, state, removes, adds)
    back = apply_delta(world, forward, adds, removes)
    assert back.facts == state.facts
    assert back.inventory == state.inventory


def test_visibility_hides_closed_container_contents(kitchen):
    world, state = kitchen
    vis = visible_facts(world, state)
    assert fact("on", "plate", "counter") in vis
    assert fact("closed", "cupboard") in vis
    assert fact("in", "sandwich", "cupboard") not in vis


def test_visibility_open_container_reveals(kitchen):
    world, state = kitchen
    opened = apply_delta(world, state, {fact("closed", "cupboard")},
                         {fact("open", "cupboard")})
    assert fact("in", "sandwich", "cupboard") in visible_facts(world, opened)


def test_visibility_empty_room_two_exits():
    # expected set computed with the reference visibility oracle and frozen
    inst = micro_instance(
        rooms=["hall", "aroom", "broom"],
        connections=[("hall", "aroom"), ("hall", "broom")],
        entities=[("plate", "takeable", ["aroom"])],
        facts=["at(player,hall)", "at(plate,aroom)"],
        goals=["in(plate,inventory)"])
    world, state = inst.world, inst.start_state()
    expected = frozenset({parse_fact("at(player,hall)"),
                          parse_fact("connects(hall,aroom)"),
                          parse_fact("connects(hall,broom)")})
    assert visible_facts(world, state) == expected
    assert reference_visible(world, state) == expected


def test_visibility_matches_reference_oracle(kitchen):
    world, state = kitchen
    assert visible_facts(world, state) == reference_visible(world, state)
    opened = apply_delta(world, state, {fact("closed", "cupboard")},
                         {fact("open", "cupboard")})
    assert visible_facts(world, opened) == reference_visible(world, opened)


def test_visibility_matches_oracle_along_heuristic_episodes(heuristic_records):
    for inst, record in heuristic_records.values():
        engine = Engine(inst)
        state = inst.start_state()
        states = [state]
        for command, _ in inst.preexploration or ():
            state, _ = engine.execute(state, command)
            states.append(state)
        for turn in record.turns:
            state = apply_delta(inst.world, state, turn.removes, turn.adds)
            states.append(state)
        for state in states:
            expected = reference_visible(inst.world, state)
            assert visible_facts(inst.world, state) == expected
            assert sorted(state.perceivable) == (
                reference_visible_entities(inst.world, state))


def test_visibility_monotone_under_opening(kitchen):
    world, state = kitchen
    opened = apply_delta(world, state, {fact("closed", "cupboard")},
                         {fact("open", "cupboard")})
    before = visible_facts(world, state) - {fact("closed", "cupboard")}
    assert before <= visible_facts(world, opened)


def test_check_goals_subset(kitchen):
    world, state = kitchen
    goals = {GoalCondition("placement", parse_fact("on(plate,counter)")),
             GoalCondition("placement", parse_fact("on(plate,table)")),
             GoalCondition("placement", parse_fact("closed(cupboard)"))}
    achieved = check_goals(state, goals)
    assert {str(g.fact) for g in achieved} == {"on(plate,counter)",
                                               "closed(cupboard)"}


def test_check_goals_all_and_none(kitchen):
    world, state = kitchen
    done = {GoalCondition("placement", parse_fact("on(plate,counter)"))}
    assert check_goals(state, done) == done
    assert check_goals(state, {GoalCondition(
        "placement", parse_fact("on(sandwich,table)"))}) == set()


def state_from_json(world, data: dict) -> WorldState:
    """Inverse of `state_to_json`, validated: the world's passages, the
    ``connects`` facts, are no state's and are left out."""
    facts = [parse_fact(s) for s in data["facts"]]
    state = WorldState(frozenset(f for f in facts if f.predicate != CONNECTS),
                       data.get("inventory_limit"))
    validate_state(world, state)
    return state


def test_a_subject_without_a_location_fact_has_no_location(kitchen):
    world, state = kitchen
    with pytest.raises(ValueError, match="^nobody has no location fact$"):
        state.location_of("nobody")
    with pytest.raises(ValueError, match="^player has no location fact$"):
        WorldState(state.facts - {fact("at", PLAYER, "kitchen")}).player_room


def test_state_json_roundtrip(kitchen):
    world, state = kitchen
    data = json.loads(json.dumps(state_to_json(world, state)))
    assert data["facts"] == sorted(data["facts"])
    assert [f for f in data["facts"] if f.startswith("connects(")] == [
        "connects(bedroom,pantry)", "connects(kitchen,pantry)",
        "connects(pantry,bedroom)", "connects(pantry,kitchen)"]
    again = state_from_json(world, data)
    assert again.facts == state.facts
    assert again.inventory == state.inventory


def test_read_maps_stay_out_of_equality_hash_and_json(kitchen):
    """The perceivable and location maps a state keeps once read are not
    part of what it is: equality, hash, repr and JSON form ignore them."""
    world, walked = kitchen
    fresh = WorldState(walked.facts, walked.inventory_limit)
    assert walked.perceivable == {"counter": fact("at", "counter", "kitchen"),
                                  "cupboard": fact("at", "cupboard", "kitchen"),
                                  "plate": fact("on", "plate", "counter")}
    assert walked.location_of("plate") == fact("on", "plate", "counter")
    assert walked == fresh and hash(walked) == hash(fresh)
    assert repr(walked) == repr(fresh)
    assert state_to_json(world, walked) == state_to_json(world, fresh)
    assert walked.perceivable is walked.perceivable


def test_state_from_json_rejects_malformed_fact(kitchen):
    world, state = kitchen
    data = state_to_json(world, state)
    data["facts"].append("at()")
    with pytest.raises(InvariantViolation, match=r"at\(\) must have 2 args"):
        state_from_json(world, data)


def test_parse_fact_rejects_garbage():
    assert parse_fact("on(plate,counter)") == fact("on", "plate", "counter")
    for bad in ("on(plate", "just words", "on(a,b)(c)"):
        with pytest.raises(ValueError):
            parse_fact(bad)


def test_entitydef_invariants():
    with pytest.raises(ValueError):
        EntityDef("x", "x", frozenset({"container", "support"}),
                  frozenset({"kitchen"}))
    with pytest.raises(ValueError):
        EntityDef("x", "x", frozenset({"container"}), frozenset({"kitchen"}))
    with pytest.raises(ValueError):
        EntityDef("x", "x", frozenset({"takeable", "support", "room-fixture"}),
                  frozenset({"kitchen"}))
    with pytest.raises(ValueError):
        EntityDef("x", "x", frozenset({"takeable"}), frozenset())


def test_catalogue_shape():
    rooms = load_room_catalogue()
    entities = load_entity_catalogue()
    assert len(rooms) == 6
    assert len(entities) == 22
    supports = [e for e in entities.values() if "support" in e.traits]
    containers = [e for e in entities.values() if "container" in e.traits]
    takeables = [e for e in entities.values() if "takeable" in e.traits]
    assert len(supports) == 7
    assert len(containers) == 4
    assert len(takeables) == 11
    # adjacency allowances are symmetric
    for rid, room in rooms.items():
        for other in room.allowed_adjacent:
            assert rid in rooms[other].allowed_adjacent


def test_asymmetric_bundled_adjacency_fails(monkeypatch):
    monkeypatch.setattr(ifbench.world, "load_data", lambda name: {"rooms": [
        {"id": "attic", "noun": "attic", "allowed_adjacent": ["cellar"]},
        {"id": "cellar", "noun": "cellar", "allowed_adjacent": []}]})
    with pytest.raises(ValueError, match="^asymmetric adjacency attic/cellar$"):
        ifbench.world.load_room_catalogue.__wrapped__()


def test_bundled_entity_in_an_unknown_room_fails(monkeypatch):
    load_room_catalogue()  # the entity loader reads the rooms through its cache
    monkeypatch.setattr(ifbench.world, "load_data", lambda name: {"entities": [
        {"id": "mop", "noun": "mop", "traits": ["takeable"],
         "allowed_rooms": ["attic"]}]})
    with pytest.raises(ValueError, match="^mop: unknown allowed room$"):
        ifbench.world.load_entity_catalogue.__wrapped__()


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"))))
def test_room_exits_join_each_pair_both_ways(pairs):
    """For any list of pairs, each room's exits are the rooms it is paired
    with, sorted and each once, so a passage needs no mirror; the graph is
    rejected exactly when some room cannot be reached from the others."""
    joined = {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
    reached, frontier = {"a"}, ["a"]
    while frontier:
        here = frontier.pop()
        for a, b in joined:
            if a == here and b not in reached:
                reached.add(b)
                frontier.append(b)
    try:
        exits = room_exits("abcd", pairs)
    except InvariantViolation as exc:
        assert str(exc) == "room graph is not connected"
        assert reached != set("abcd")
        return
    assert reached == set("abcd")
    assert list(exits) == list("abcd")
    for room, others in exits.items():
        assert others == tuple(sorted({b for a, b in joined if a == room}))


@given(st.sampled_from(["plate", "sandwich"]),
       st.sampled_from(["counter", "table", "floor", "inventory"]))
def test_move_delta_roundtrip_property(item, destination):
    inst = micro_instance(
        rooms=["kitchen"],
        connections=[],
        entities=[("counter", "support", ["kitchen"]),
                  ("table", "support", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("sandwich", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "at(table,kitchen)", "on(plate,counter)",
               "at(sandwich,kitchen)"],
        goals=["on(plate,table)"])
    world, state = inst.world, inst.start_state()
    old = next(f for f in state.facts
               if f.predicate in ("at", "on", "in") and f.args[0] == item)
    if destination == "floor":
        new = fact("at", item, "kitchen")
    elif destination == "inventory":
        new = fact("in", item, "inventory")
    else:
        new = fact("on", item, destination)
    if new == old:
        return
    moved = apply_delta(world, state, {old}, {new})
    back = apply_delta(world, moved, {new}, {old})
    assert back.facts == state.facts


def _full_check_rejects(world, state, removes, adds) -> bool:
    """Whether `validate_state` rejects the state `removes`/`adds` lead to."""
    facts = (state.facts - removes) | adds
    try:
        validate_state(world, WorldState(facts, state.inventory_limit))
    except InvariantViolation:
        return True
    return False


def _local_check_rejects(world, state, removes, adds) -> bool:
    try:
        result = apply_delta(world, state, removes, adds)
    except InvariantViolation:
        return True
    assert result.facts == (state.facts - removes) | adds
    validate_state(world, result)
    return False


@pytest.fixture(scope="module")
def reached_states(oracle_records):
    """(engine, state) for every state the optimal plans pass through in the
    seed-17 families with container groups, an inventory limit and custom
    one-, two- and three-state groups."""
    cases = []
    for inst, record in oracle_records.records.values():
        if inst.family not in ("basic-easy", "limit-hard", "synthetic-hard"):
            continue
        engine = Engine(inst)
        state = inst.start_state()
        cases.append((engine, state))
        for turn in record.turns:
            state = apply_delta(inst.world, state, turn.removes, turn.adds)
            validate_state(inst.world, state)
            cases.append((engine, state))
    return cases


def _random_delta(engine, state, edits):
    """A delta built from `edits`, (kind, pick, pick, pick) tuples whose picks
    index (modulo length) into the state's facts, the predicates and ids."""
    world = engine.world
    predicates = sorted(world.state_predicates
                        | {"at", "in", "on", CONNECTS, "open", "closed", "unknown"})
    things = sorted(world.entities) + sorted(world.rooms)
    # inventory and the player come up as often as all other ids together
    ids = [INVENTORY, PLAYER] * (len(things) // 2 + 1) + things + ["nobody"]
    present = sorted(state.facts)
    placed = [f for f in present if f.predicate in ("at", "in", "on")]
    removes, adds = set(), set()
    for kind, a, b, c in edits:
        if kind == "remove":
            removes.add(present[a % len(present)])
        elif kind == "add":  # any predicate, 0-3 args
            adds.add(Fact(predicates[a % len(predicates)],
                          tuple(ids[(b >> (8 * i)) % len(ids)]
                                for i in range(c % 4))))
        elif kind == "move":  # a placed subject gets a new location fact
            old = placed[a % len(placed)]
            if b % 2:
                removes.add(old)
            adds.add(Fact(("at", "in", "on")[b // 2 % 3],
                          (old.args[0], ids[c % len(ids)])))
        elif kind == "restate":  # an entity with a state group gets a state
            groups = sorted(world.state_groups.items())
            if not groups:
                continue
            eid, group = groups[a % len(groups)]
            if b % 2:
                removes.update(f for f in present if f.args == (eid,))
            options = group.states + ("open", "closed") + tuple(predicates)
            adds.add(Fact(options[c % len(options)], (eid,)))
        else:  # an action's effects with its preconditions ignored
            action = engine.actions[sorted(engine.actions)[a % len(engine.actions)]]
            params = [p.name for p in action.params if not p.optional]
            binding = tuple((name, things[(b >> (8 * i)) % len(things)])
                            for i, name in enumerate(params))
            try:
                more_removes, more_adds = engine.step(
                    GroundedAction(action.verb, binding)).effects(state)
            except ValueError:  # location_of an id that has no location
                continue
            removes |= more_removes
            adds |= more_adds
    # keep to deltas that pass apply_delta's fit prechecks
    removes = frozenset(removes) & state.facts
    return removes, frozenset(adds) - (state.facts - removes)


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=0), st.lists(st.tuples(
    st.sampled_from(["remove", "add", "move", "restate", "action"]),
    st.integers(min_value=0), st.integers(min_value=0),
    st.integers(min_value=0)), min_size=1, max_size=2))
def test_local_delta_check_matches_validate_state(reached_states, pick, edits):
    engine, state = reached_states[pick % len(reached_states)]
    removes, adds = _random_delta(engine, state, edits)
    assert (_local_check_rejects(engine.world, state, removes, adds)
            == _full_check_rejects(engine.world, state, removes, adds))


@pytest.fixture
def lamp_world():
    inst = micro_instance(
        rooms=["kitchen", "pantry"],
        connections=[("kitchen", "pantry")],
        entities=[("counter", "support", ["kitchen"]),
                  ("cupboard", "container", ["kitchen"]),
                  ("lamp", "support", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("cup", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "at(cupboard,kitchen)", "closed(cupboard)", "at(lamp,kitchen)",
               "dim(lamp)", "on(plate,counter)", "in(cup,inventory)"],
        goals=["lit(lamp)"], inventory_limit=1,
        state_groups=[StateGroup("lamp", ("dim", "lit", "hot"), "dim")])
    return inst.world, inst.start_state()


@pytest.mark.parametrize("removes, adds", [
    ([], ["at(player,pantry)"]),
    (["at(player,kitchen)"], ["at(player,attic)"]),
    (["on(plate,counter)"], []),
    ([], ["at(plate,kitchen)"]),
    (["on(plate,counter)"], ["on(plate,cupboard)"]),
    (["on(plate,counter)"], ["in(plate,counter)"]),
    ([], ["lit(lamp)"]),
    (["dim(lamp)"], []),
    ([], ["open(counter)"]),
    (["on(plate,counter)"], ["in(plate,inventory)"]),
    (["on(plate,counter)"], ["on(plate)"]),
    ([], ["at()"]),
    ([], ["lit(lamp,cupboard)"]),
    ([], ["glow(lamp)"]),
    ([], ["connects(kitchen,pantry)", "connects(pantry,kitchen)"]),
    ([], ["connects(kitchen,attic)"]),
], ids=["two-player-locations", "player-in-unknown-room", "item-unplaced",
        "item-placed-twice", "on-non-support", "in-non-container",
        "two-custom-states", "lost-initial-state", "open-non-container",
        "over-inventory-limit", "wrong-arity", "argumentless-at",
        "state-wrong-arity",
        "unknown-predicate", "connects-pair", "connects-one-way"])
def test_apply_delta_rejects_each_invariant(lamp_world, removes, adds):
    world, state = lamp_world
    removes = frozenset(parse_fact(f) for f in removes)
    adds = frozenset(parse_fact(f) for f in adds)
    assert _full_check_rejects(world, state, removes, adds)
    with pytest.raises(InvariantViolation):
        apply_delta(world, state, removes, adds)


@pytest.mark.parametrize("removes, adds", [
    (["at(player,kitchen)"], ["at(player,pantry)"]),
    (["dim(lamp)"], ["hot(lamp)"]),
    (["in(cup,inventory)"], ["on(cup,lamp)"]),
    (["in(cup,inventory)", "on(plate,counter)"],
     ["at(cup,kitchen)", "in(plate,inventory)"]),
    (["closed(cupboard)"], ["open(cupboard)"]),
])
def test_apply_delta_accepts_valid_moves(lamp_world, removes, adds):
    world, state = lamp_world
    removes = frozenset(parse_fact(f) for f in removes)
    adds = frozenset(parse_fact(f) for f in adds)
    assert not _full_check_rejects(world, state, removes, adds)
    assert not _local_check_rejects(world, state, removes, adds)
