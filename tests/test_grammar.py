from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import ifbench.grammar
from ifbench import (DuplicateVerb, GroundFailure, Lexicon, ParseFailure,
                     build_parser, load_standard_actions)
from ifbench.grammar import GroundedAction, ParsedCommand, action_from_json
from ifbench.world import load_data
from oracles import micro_instance

ACTIONS = load_standard_actions()


@pytest.fixture
def home():
    return micro_instance(
        rooms=["kitchen", "living_room", "hallway"],
        connections=[("kitchen", "hallway"), ("hallway", "living_room")],
        entities=[("counter", "support", ["kitchen"]),
                  ("side_table", "support", ["living_room"]),
                  ("table", "support", ["kitchen"]),
                  ("cupboard", "container", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("potted_plant", "takeable", ["living_room"]),
                  ("book", "takeable", ["living_room"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)", "at(table,kitchen)",
               "at(cupboard,kitchen)", "open(cupboard)",
               "at(side_table,living_room)", "on(plate,counter)",
               "on(book,side_table)", "at(potted_plant,living_room)"],
        goals=["on(plate,table)"])


def test_parse_canonical(home):
    cmd = home.parser.parse("take the plate")
    assert cmd == ParsedCommand("take", ("plate",), None)


def test_parse_put_with_preposition(home):
    cmd = home.parser.parse("put plate on table")
    assert cmd.verb == "put"
    assert cmd.noun_phrases == ("plate", "table")
    assert cmd.preposition == "on"


def test_parse_unknown_verb(home):
    with pytest.raises(ParseFailure) as err:
        home.parser.parse("fly to moon")
    assert err.value.kind == "unknown-verb"


def test_parse_function_words_skipped(home):
    variants = ["go hallway", "go to hallway", "go to the hallway"]
    assert len({home.parser.parse(v) for v in variants}) == 1


def test_parse_multiword_nouns_longest_first(home):
    cmd = home.parser.parse("put the book on the side table")
    assert cmd.noun_phrases == ("book", "side table")
    cmd = home.parser.parse("examine potted plant")
    assert cmd.noun_phrases == ("potted plant",)


def test_parse_zero_arg_verbs(home):
    assert home.parser.parse("look") == ParsedCommand("look", (), None)
    assert home.parser.parse("done.") == ParsedCommand("done", (), None)
    with pytest.raises(ParseFailure):
        home.parser.parse("look around")


def test_parse_missing_argument_malformed(home):
    with pytest.raises(ParseFailure) as err:
        home.parser.parse("take")
    assert err.value.kind == "malformed"


def test_parse_take_from_source(home):
    cmd = home.parser.parse("take the plate from the counter")
    assert cmd.noun_phrases == ("plate", "counter")
    assert cmd.preposition == "from"


def test_ground_room(home):
    grounded = home.parser.ground(home.parser.parse("go hallway"), home.world)
    assert grounded == GroundedAction("go", (("room", "hallway"),))


def test_ground_unknown_entity(home):
    with pytest.raises(GroundFailure) as err:
        home.parser.ground(home.parser.parse("take the spoon"), home.world)
    assert err.value.kind == "unknown-entity"


def test_ground_ambiguous_noun(home):
    nouns = {e.id: e.noun for e in home.entities}
    parser = build_parser(ACTIONS, Lexicon(), {**nouns, "book": "plate"})
    with pytest.raises(GroundFailure) as err:
        parser.ground(parser.parse("take plate"), home.world)
    assert err.value.kind == "ambiguous"


def test_ground_trait_mismatch(home):
    with pytest.raises(GroundFailure) as err:
        home.parser.ground(home.parser.parse("open table"), home.world)
    assert err.value.kind == "trait-mismatch"


def test_ground_prep_mismatch(home):
    with pytest.raises(GroundFailure) as err:
        home.parser.ground(home.parser.parse("put plate in table"), home.world)
    assert err.value.kind == "prep-mismatch"
    # matching and omitted prepositions both ground
    home.parser.ground(home.parser.parse("put plate on table"), home.world)
    home.parser.ground(home.parser.parse("put plate in cupboard"), home.world)
    home.parser.ground(home.parser.parse("put plate cupboard"), home.world)


def test_ground_trait_matrix(home):
    """Acceptance per verb must match the action-table target traits."""
    world = home.world
    idents = sorted(world.entities) + sorted(world.rooms)

    def expected_ok(verb, ident):
        if verb == "go":
            return ident in world.rooms
        if ident in world.rooms:
            return False
        if verb in ("open", "close"):
            return world.is_container(ident)
        if verb == "take":
            return world.is_takeable(ident)
        if verb == "examine":
            return True
        return False

    for verb in ("open", "close", "take", "go", "examine"):
        for ident in idents:
            noun = world.noun_of(ident)
            try:
                home.parser.ground(ParsedCommand(verb, (noun,), None), world)
                ok = True
            except GroundFailure:
                ok = False
            assert ok == expected_ok(verb, ident), (verb, ident)
    # put requires takeable item and receptacle target
    for item in idents:
        for target in idents:
            cmd = ParsedCommand("put", (world.noun_of(item),
                                        world.noun_of(target)), None)
            try:
                home.parser.ground(cmd, world)
                ok = True
            except GroundFailure:
                ok = False
            should = (world.is_takeable(item)
                      and (world.is_container(target) or world.is_support(target)))
            assert ok == should, (item, target)


def test_ground_take_source_is_a_location(home):
    # a source may be a room, a container or a support, never an object
    world = home.world
    for ident in sorted(world.entities) + sorted(world.rooms):
        cmd = ParsedCommand("take", ("plate", world.noun_of(ident)), "from")
        try:
            grounded = home.parser.ground(cmd, world)
        except GroundFailure as err:
            assert err.kind == "trait-mismatch", ident
            ok = False
        else:
            assert grounded.get("source") == ident
            ok = True
        assert ok == (ident in world.rooms or world.is_container(ident)
                      or world.is_support(ident)), ident


def test_render_round_trip(home):
    world = home.world
    samples = [GroundedAction("take", (("item", "plate"),)),
               GroundedAction("put", (("item", "book"), ("target", "side_table"))),
               GroundedAction("put", (("item", "plate"), ("target", "cupboard"))),
               GroundedAction("go", (("room", "living_room"),)),
               GroundedAction("open", (("item", "cupboard"),)),
               GroundedAction("examine", (("item", "potted_plant"),)),
               GroundedAction("done", ()),
               GroundedAction("look", ()),
               GroundedAction("take", (("item", "plate"), ("source", "counter"))),
               GroundedAction("take", (("item", "book"),
                                       ("source", "living_room")))]
    for grounded in samples:
        text = home.parser.render(grounded, world)
        again = home.parser.ground(home.parser.parse(text), world)
        assert again == grounded, text


def _den():
    """A den whose sofa cannot be opened and whose two books share a noun."""
    inst = micro_instance(
        rooms=["den"], connections=[],
        entities=[("sofa", "support", ["den"]), ("book", "takeable", ["den"]),
                  ("novel", "takeable", ["den"])],
        facts=["at(player,den)", "at(sofa,den)", "at(book,den)",
               "on(novel,sofa)"],
        goals=["on(book,sofa)"])
    return replace(inst, entities=tuple(
        replace(e, noun="book") if e.id == "novel" else e
        for e in inst.entities))


@pytest.mark.parametrize("grounded, text, fault", [
    (GroundedAction("look", (("item", "book"),)), "look",
     "which reads back as GroundedAction(action='look', bindings=())"),
    (GroundedAction("open", (("item", "sofa"),)), "open sofa",
     "which fails: trait-mismatch: sofa"),
    (GroundedAction("take", (("item", "novel"),)), "take book",
     "which fails: ambiguous: book"),
], ids=["another-action", "trait-mismatch", "ambiguous"])
def test_render_rejects_text_that_does_not_read_back(grounded, text, fault):
    inst = _den()
    with pytest.raises(ValueError) as err:
        inst.parser.render(grounded, inst.world)
    assert str(err.value) == f"{grounded} renders as {text!r}, {fault}"


def test_bundled_rows_pass_the_reader_and_round_trip():
    """Every bundled actions.json row passes the reader that instance rows
    go through too, and `to_json` gives the row back, with each parameter's
    `optional` spelled out."""
    rows = load_data("actions.json")["actions"]
    assert len(rows) == len(ACTIONS)
    for row, action in zip(rows, ACTIONS):
        assert action_from_json(row, ("open", "closed")) == action
        assert action.to_json() == {**row, "params": [
            {"optional": False, **p} for p in row["params"]]}


def test_a_faulty_bundled_action_names_actions_json(monkeypatch):
    row = load_data("actions.json")["actions"][0]
    monkeypatch.setattr(ifbench.grammar, "load_data", lambda name: {
        "actions": [{**row, "grammar": "zap <item>"}]})
    with pytest.raises(ValueError, match=r"^actions\.json: action 'open', "
                       "grammar: 'zap <item>' is not a snippet"):
        ifbench.grammar.load_standard_actions.__wrapped__()


def test_build_parser_empty_action_set(home):
    with pytest.raises(ValueError):
        build_parser((), Lexicon(), {})


def test_duplicate_verb_after_substitution(home):
    lexicon = Lexicon(verbs={"open": "take"})
    nouns = {e.id: e.noun for e in home.entities}
    with pytest.raises(DuplicateVerb):
        build_parser(ACTIONS, lexicon, nouns)


def test_lexicon_rejects_function_words_and_collisions():
    with pytest.raises(ValueError):
        Lexicon(nouns={"the": "blap"})
    with pytest.raises(ValueError):
        Lexicon(nouns={"book": "blap"}, verbs={"put": "blap"})


def test_parse_under_substitution(home):
    lexicon = Lexicon(nouns={"book": "decte", "side table": "stord"},
                      verbs={"put": "aphon"})
    nouns = {e.id: e.noun for e in home.entities}
    nouns.update({r.id: r.noun for r in home.rooms})
    parser = build_parser(ACTIONS, lexicon, nouns)
    cmd = parser.parse("aphon decte on stord")
    assert cmd == ParsedCommand("aphon", ("decte", "stord"), "on")
    grounded = parser.ground(cmd, home.world)
    assert grounded == GroundedAction("put", (("item", "book"),
                                              ("target", "side_table")))
    # the optional preposition may be dropped
    assert parser.ground(parser.parse("aphon decte stord"), home.world) == grounded


_SKIPPABLE = ["the", "a", "an", "to", "at"]


@settings(max_examples=60)
@given(st.lists(st.sampled_from(_SKIPPABLE), max_size=2),
       st.lists(st.sampled_from(_SKIPPABLE), max_size=2),
       st.sampled_from(["take plate", "go hallway", "open cupboard",
                        "put plate on table", "examine side table"]))
def test_function_word_insertion_invariance(before, between, base):
    home = _HOME
    words = base.split()
    line = " ".join([words[0]] + before + words[1:])
    assert home.parser.parse(line) == home.parser.parse(base)
    if base.startswith("put"):
        padded = "put " + " ".join(before) + " plate on " + " ".join(between) + " table"
        assert home.parser.parse(padded) == home.parser.parse(base)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_substitution_commutes_with_parsing(rnd):
    home = _HOME
    nouns = {e.id: e.noun for e in home.entities}
    nouns.update({r.id: r.noun for r in home.rooms})
    pool = ["zorp", "quib", "flent", "drax", "mibble", "crunt", "velp", "sny"]
    rnd.shuffle(pool)
    picked_nouns = rnd.sample(sorted(nouns.values()), 2)
    picked_verb = rnd.choice(["take", "put", "open", "close"])
    lexicon = Lexicon(nouns=dict(zip(picked_nouns, pool)),
                      verbs={picked_verb: pool[5]})
    sub_parser = build_parser(ACTIONS, lexicon, nouns)
    for base in ["take plate", "open cupboard", "put book on side table",
                 "go hallway", "close cupboard"]:
        plain = home.parser.parse(base)
        # rebuild the surface text with whole noun phrases mapped through L
        pieces = [lexicon.verb(plain.verb)]
        for i, phrase in enumerate(plain.noun_phrases):
            if i == 1 and plain.preposition:
                pieces.append(plain.preposition)
            pieces.append(lexicon.noun(phrase))
        mapped_line = " ".join(pieces)
        mapped = sub_parser.parse(mapped_line)
        assert mapped.verb == lexicon.verb(plain.verb)
        assert mapped.noun_phrases == tuple(lexicon.noun(n)
                                            for n in plain.noun_phrases)
        assert mapped.preposition == plain.preposition


def _make_home():
    return micro_instance(
        rooms=["kitchen", "living_room", "hallway"],
        connections=[("kitchen", "hallway"), ("hallway", "living_room")],
        entities=[("counter", "support", ["kitchen"]),
                  ("side_table", "support", ["living_room"]),
                  ("table", "support", ["kitchen"]),
                  ("cupboard", "container", ["kitchen"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("potted_plant", "takeable", ["living_room"]),
                  ("book", "takeable", ["living_room"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)", "at(table,kitchen)",
               "at(cupboard,kitchen)", "open(cupboard)",
               "at(side_table,living_room)", "on(plate,counter)",
               "on(book,side_table)", "at(potted_plant,living_room)"],
        goals=["on(plate,table)"])


_HOME = _make_home()
