import pytest
from hypothesis import given, strategies as st

from ifbench import (EmptyInput, ScriptedAgent, aggregate,
                     combine_clemscore, episode_summary, goal_success_rate,
                     load_standard_actions, run_episode, solve_optimal)
from ifbench.metrics import (macro_averages, paper_pct, scores_to_csv,
                             scores_to_json)
from oracles import micro_instance, plan_agent

ACTIONS = {a.verb: a for a in load_standard_actions()}

# Benchmark overview rows: (reported clemscore, quality, played)
OVERVIEW_ROWS = [
    (86.4, 88.2, 97.9),
    (68.7, 79.2, 86.8),
    (52.7, 56.2, 93.8),
    (43.8, 49.2, 89.2),
    (40.1, 43.3, 92.5),
    (39.8, 46.5, 85.4),
    (15.9, 28.8, 55.4),
    (12.0, 25.0, 47.9),
    (11.2, 21.2, 52.9),
    (8.2, 20.6, 39.9),
]


def summary(outcome="success", achieved=3, total=3, turns=10,
            phase_counts=None, family="basic-easy", optimal=8,
            grounded=None, epistemic=0):
    counts = {"format-fail": 0, "parse-fail": 0, "resolution-fail": 0,
              "precondition-fail": 0, "success": turns}
    if phase_counts:
        counts.update(phase_counts)
    return {"type": "summary", "instance_id": "x", "family": family,
            "outcome": outcome, "turns": turns, "goals_total": total,
            "goals_achieved": [f"on(item{i},table)" for i in range(achieved)],
            "phase_counts": counts,
            "grounded_turns": grounded if grounded is not None else turns,
            "epistemic_turns": epistemic, "pragmatic_turns": 0,
            "optimal_length": optimal}


def test_goal_success_rate_examples():
    assert goal_success_rate(3, 3) == 100.0
    assert goal_success_rate(0, 3) == 0.0
    assert abs(goal_success_rate(2, 3) - 66.67) < 0.01
    with pytest.raises(ValueError):
        goal_success_rate(4, 3)
    with pytest.raises(ValueError):
        goal_success_rate(0, 0)


def test_classify_outcomes():
    inst = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("table", "support", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(table,kitchen)", "at(apple,kitchen)"],
        goals=["on(apple,table)"])
    plan = solve_optimal(inst)
    record = run_episode(inst, plan_agent(inst, plan.actions))
    assert record.outcome == "success"
    record = run_episode(inst, ScriptedAgent(["> done"]))
    assert record.outcome == "lost"
    record = run_episode(inst, ScriptedAgent(["> look"] * 55))
    assert record.outcome == "aborted-turn-limit"
    record = run_episode(inst, ScriptedAgent(["take apple"]))
    assert record.outcome == "aborted-format"


def test_aggregate_hand_counted_fixture():
    # 16 episodes: 12 success, 3 lost, 1 aborted -> played 15/16, quality 12/15
    episodes = ([summary("success")] * 12
                + [summary("lost", achieved=1)] * 3
                + [summary("aborted-turn-limit", achieved=0, turns=50)])
    scores = aggregate(episodes)
    assert scores.n_episodes == 16
    assert scores.played_pct == pytest.approx(93.75)
    assert scores.quality == pytest.approx(80.0)


def test_aggregate_all_aborted():
    episodes = [summary("aborted-format", achieved=0, turns=1)] * 4
    scores = aggregate(episodes)
    assert scores.played_pct == 0.0
    assert scores.quality == 0.0


def test_aggregate_empty():
    with pytest.raises(EmptyInput):
        aggregate([])


def test_aggregate_gsr_includes_aborted():
    episodes = [summary("success"), summary("aborted-turn-limit", achieved=1)]
    scores = aggregate(episodes)
    assert scores.gsr == pytest.approx((100.0 + 100.0 / 3) / 2)


def test_sixteen_instance_percentages():
    # 13/16 successes with everything played -> 81.25; 15/16 played -> 93.75
    all_played = [summary("success")] * 13 + [summary("lost", achieved=0)] * 3
    assert aggregate(all_played).quality == pytest.approx(81.25)
    assert paper_pct(aggregate(all_played).quality) == "81.2"
    one_aborted = ([summary("success")] * 15
                   + [summary("aborted-turn-limit", achieved=0)])
    assert aggregate(one_aborted).played_pct == pytest.approx(93.75)
    assert paper_pct(aggregate(one_aborted).played_pct) == "93.7"


def test_clemscore_reference_rows():
    for reported, quality, played in OVERVIEW_ROWS:
        assert abs(combine_clemscore(quality, played) - reported) <= 0.1


def test_clemscore_trivial_and_macro():
    a = aggregate([summary("success")] * 4, "basic-easy")
    b = aggregate([summary("success")] * 4, "basic-hard")
    assert scores_to_json("a", [a, b])["clemscore"] == pytest.approx(100.0)
    assert macro_averages([a, b])[2] == pytest.approx(100.0)
    c = aggregate([summary("aborted-format", achieved=0, turns=1)] * 4,
                  "basic-easy")
    # macro 50 x macro 50
    assert scores_to_json("a", [a, c])["clemscore"] == pytest.approx(25.0)


def test_clemscore_empty():
    with pytest.raises(EmptyInput):
        scores_to_json("a", [])
    with pytest.raises(EmptyInput):
        macro_averages([])


def test_label_action_flags():
    inst = micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("cupboard", "container", ["kitchen"]),
                  ("apple", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(cupboard,kitchen)",
               "closed(cupboard)", "at(apple,kitchen)"],
        goals=["in(apple,cupboard)"])
    # examine: epistemic only; open: both; close and done: pragmatic only;
    # the unknown verb is not grounded and counts in neither
    episode = run_episode(inst, ScriptedAgent(
        ["> examine apple", "> open cupboard", "> close cupboard", "> dance",
         "> done"]))
    assert [t.grounded is not None for t in episode.turns] == [
        True, True, True, False, True]
    summary = episode_summary(episode)
    assert (summary["grounded_turns"], summary["epistemic_turns"],
            summary["pragmatic_turns"]) == (4, 2, 3)
    assert aggregate([summary]).epistemic_action_pct == 50.0


def test_table_flags_catalogue():
    expected = {
        "open": (True, True, True),
        "close": (False, True, True),
        "take": (False, True, True),
        "put": (False, True, True),
        "go": (True, True, False),
        "done": (False, True, False),
        "examine": (True, False, False),
        "look": (False, False, False),
    }
    assert len(ACTIONS) == 8
    for verb, (epi, prag, repl) in expected.items():
        flags = ACTIONS[verb].flags
        assert (flags.epistemic, flags.pragmatic, flags.replaceable) == \
            (epi, prag, repl), verb


def test_histogram_plus_successes_is_total_turns():
    episodes = [summary("lost", achieved=0, turns=10,
                        phase_counts={"success": 6, "parse-fail": 3,
                                      "precondition-fail": 1}),
                summary("success", turns=5)]
    scores = aggregate(episodes)
    assert (sum(scores.phase_failure_histogram.values())
            + scores.successful_turns) == 15


def test_gsr_bounds():
    assert aggregate([summary("success")]).gsr == 100.0
    assert aggregate([summary("lost", achieved=0)]).gsr == 0.0


@given(st.permutations(range(8)))
def test_aggregation_permutation_invariant(order):
    episodes = ([summary("success")] * 3 + [summary("lost", achieved=1)] * 2
                + [summary("aborted-turn-limit", achieved=0)] * 3)
    shuffled = [episodes[i] for i in order]
    a, b = aggregate(episodes), aggregate(shuffled)
    assert (a.played_pct, a.quality, a.gsr) == (b.played_pct, b.quality, b.gsr)


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)),
                min_size=1, max_size=9))
def test_clemscore_bounded_by_macros(pairs):
    scores = [aggregate([summary("success")]) for _ in pairs]
    for s, (q, p) in zip(scores, pairs):
        s.quality = q
        s.played_pct = p
    value = scores_to_json("a", scores)["clemscore"]
    macro_q = sum(q for q, _ in pairs) / len(pairs)
    macro_p = sum(p for _, p in pairs) / len(pairs)
    assert value <= min(macro_q, macro_p) + 1e-9


def test_paper_pct_truncation():
    assert paper_pct(93.75) == "93.7"
    assert paper_pct(81.25) == "81.2"
    assert paper_pct(100.0) == "100.0"
    assert paper_pct(6.25) == "6.2"


def test_csv_and_json_emission():
    scores = [aggregate([summary("success")] * 2, "basic-easy")]
    payload = scores_to_json("tester", scores)
    assert payload["clemscore"] == pytest.approx(100.0)
    assert "basic-easy" in payload["experiments"]
    text = scores_to_csv([{"agent": "tester", "experiment": "basic-easy",
                           "n_episodes": 2, "played_pct": 100.0,
                           "quality": 100.0, "gsr": 100.0, "mean_turns": 10.0,
                           "mean_optimal_turns": 8.0,
                           "epistemic_action_pct": 0.0}])
    lines = text.strip().splitlines()
    assert lines[0].startswith("agent,experiment")
    assert len(lines) == 2
