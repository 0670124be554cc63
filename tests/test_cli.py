import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from pathlib import Path

import pytest

import ifbench
import ifbench.cli
from ifbench import interpreter, load_instances, save_instances
from ifbench.cli import main
from test_agents import kept_alive_server, stub_server  # noqa: F401 (fixtures)


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("instances")
    code = main(["generate", "--seed", "23", "--count", "2",
                 "--families", "basic-easy,limit-hard,synthetic-hard",
                 "--out", str(out)])
    assert code == 0
    return out


def test_generate_writes_files(small_set):
    names = sorted(p.name for p in small_set.glob("*.json"))
    assert names == ["basic-easy.json", "limit-hard.json",
                     "synthetic-hard.json"]
    payload = json.loads((small_set / "basic-easy.json").read_text())
    assert payload["count"] == 2
    assert payload["prng"] == "numpy-PCG64"


def test_generate_deterministic(small_set, tmp_path):
    again = tmp_path / "again"
    main(["generate", "--seed", "23", "--count", "2",
          "--families", "basic-easy,limit-hard,synthetic-hard",
          "--out", str(again)])
    assert _tree_bytes(small_set) == _tree_bytes(again)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs that `generate` and `run` take to be usable."""
    return lambda n: monkeypatch.setattr(ifbench.cli, "USABLE_CPUS", n)


def test_generate_parallel_matches_serial(small_set, tmp_path, capsys, cpus):
    trees, shown = [], []
    for workers in (1, 3):
        cpus(workers)
        out = tmp_path / str(workers)
        assert main(["generate", "--seed", "23", "--count", "2", "--families",
                     "synthetic-hard,basic-easy,limit-hard",
                     "--out", str(out)]) == 0
        trees.append(_tree_bytes(out))
        shown.append(capsys.readouterr())
    assert trees[0] == trees[1] == _tree_bytes(small_set)
    assert shown[0] == shown[1]
    assert [line.split(":")[0] for line in shown[0].out.splitlines()] == [
        "synthetic-hard", "basic-easy", "limit-hard"]


def test_generate_without_fork_runs_in_process(tmp_path, monkeypatch, cpus):
    cpus(3)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    assert main(["generate", "--count", "1", "--families",
                 "synthetic-hard,basic-easy", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "basic-easy.json", "synthetic-hard.json"]


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_exhausted_family_fails_cleanly(tmp_path, monkeypatch, capsys,
                                                 cpus, workers):
    # forked workers inherit the patched generator
    import ifbench.generate
    generate_family = ifbench.generate.generate_family

    def exhausted_limit_hard(base_seed, family, count):
        if family == "limit-hard":
            raise ifbench.GenerationExhausted(family)
        return generate_family(base_seed, family, count)

    monkeypatch.setattr(ifbench.generate, "generate_family", exhausted_limit_hard)
    cpus(workers)
    code = main(["generate", "--count", "1", "--families",
                 "synthetic-hard,limit-hard,basic-easy", "--out", str(tmp_path)])
    shown = capsys.readouterr()
    assert code == 1
    assert shown.err == "generation exhausted for limit-hard\n"
    assert shown.out.startswith("synthetic-hard: 1 instances")
    assert len(shown.out.splitlines()) == 1
    # a family after the failed one may have been written by another worker
    written = {p.name for p in tmp_path.iterdir()}
    assert "synthetic-hard.json" in written and "limit-hard.json" not in written
    if workers == 1:
        assert written == {"synthetic-hard.json"}


def test_fork_map_takes_costliest_first_and_yields_in_order(monkeypatch, cpus):
    submitted = []

    class Pool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, fn, item):
            submitted.append(item)
            future = Future()
            future.set_result(item * 10)
            return future

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    cpus(2)
    items = [2, 7, 1, 5, 7]
    got = list(ifbench.cli._fork_map(None, items, cost=lambda n: n))
    assert got == [20, 70, 10, 50, 70]
    assert submitted == [7, 7, 5, 2, 1]
    submitted.clear()
    assert list(ifbench.cli._fork_map(None, items)) == got
    assert submitted == items


def test_generate_rejects_unknown_family(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "--families", "nope", "--out", str(tmp_path)])


def test_run_scripted_and_report(small_set, tmp_path, capsys):
    results = tmp_path / "results"
    code = main(["run", "--instances", str(small_set), "--agent", "scripted",
                 "--out", str(results)])
    assert code == 0
    scores = json.loads((results / "scripted" / "scores.json").read_text())
    assert scores["clemscore"] == pytest.approx(100.0)
    assert set(scores["experiments"]) == {"basic-easy", "limit-hard",
                                          "synthetic-hard"}
    episodes = sorted((results / "scripted").rglob("*.jsonl"))
    assert len(episodes) == 6
    assert (results / "scripted" / "scores.csv").exists()

    report_out = tmp_path / "report"
    code = main(["report", "--results", str(results),
                 "--instances", str(small_set), "--out", str(report_out)])
    assert code == 0
    shown = capsys.readouterr().out
    assert "clemscore" in shown and "scripted" in shown
    assert (report_out / "turns.csv").exists()
    dots = sorted((report_out / "graphs").glob("*.dot"))
    assert len(dots) == 6


@pytest.fixture(scope="module")
def suite17(bench144, tmp_path_factory):
    """The seed-17 suite, one file per family."""
    suite = tmp_path_factory.mktemp("suite17")
    for family, instances in bench144.items():
        save_instances(instances, suite / f"{family}.json", base_seed=17)
    return suite


def test_run_heuristic_parallel_deterministic(suite17, tmp_path, capsys, cpus):
    # the offline agents play one family per worker process, and write the
    # same files and lines in process as with more workers than CPUs
    for agent in ("heuristic", "scripted"):
        trees, shown = [], []
        for workers in (1, 3):
            cpus(workers)
            out = tmp_path / f"{agent}{workers}"
            assert main(["run", "--instances", str(suite17), "--agent", agent,
                         "--out", str(out)]) == 0
            trees.append(_tree_bytes(out))
            shown.append(capsys.readouterr())
        assert len(trees[0]) == 144 + 2
        assert trees[0] == trees[1]
        assert shown[0] == shown[1]


@pytest.fixture(scope="module")
def results17(suite17, tmp_path_factory):
    """A scripted and a heuristic `run` of the seed-17 suite."""
    out = tmp_path_factory.mktemp("results17")
    for agent in ("scripted", "heuristic"):
        assert main(["run", "--instances", str(suite17), "--agent", agent,
                     "--out", str(out)]) == 0
    return out


def test_scores_rebuild_from_the_written_summaries(results17):
    # what `run` scores is each episode's summary line as written: the
    # summaries read back give the same scores.json, byte for byte
    from ifbench import read_episode_summary
    from ifbench.metrics import score_summaries
    for agent in ("scripted", "heuristic"):
        paths = sorted((results17 / agent).glob("*/*.jsonl"))
        assert len(paths) == 144
        _, payload = score_summaries(agent, map(read_episode_summary, paths))
        rebuilt = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        assert rebuilt == (results17 / agent / "scores.json").read_text(
            encoding="utf-8")


def _report(results: Path, out: Path, capsys) -> tuple[str, bytes]:
    """`report`'s stdout and turns.csv, minus the line naming `out`."""
    capsys.readouterr()
    assert main(["report", "--results", str(results), "--out", str(out)]) == 0
    shown = capsys.readouterr().out.replace(str(out), "OUT")
    return shown, (out / "turns.csv").read_bytes()


def test_report_scores_the_transcripts_not_scores_json(results17, tmp_path,
                                                       capsys):
    # scores.json marks a finished run; what `report` prints and writes
    # comes from the transcripts, under the agent directory's name
    results = tmp_path / "results"
    shutil.copytree(results17, results)
    before = _report(results, tmp_path / "before", capsys)

    def edit(value):
        if isinstance(value, dict):
            return {k: edit(v) for k, v in value.items()}
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value * 3 + 7
        return "org/model" if isinstance(value, str) else value

    for path in results.glob("*/scores.json"):
        edited = edit(json.loads(path.read_text(encoding="utf-8")))
        assert edited != json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(edited), encoding="utf-8")
    assert _report(results, tmp_path / "after", capsys) == before


def test_report_names_the_file_and_field_of_a_bad_summary(results17, tmp_path,
                                                          capsys):
    results = tmp_path / "results"
    shutil.copytree(results17, results)
    path = results / "heuristic" / "basic-easy" / "basic-easy-03.jsonl"
    *turns, summary = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(turns + [summary.replace(
        '"outcome": "success"', '"outcome": "won"')]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--results", str(results)]) == 1
    assert capsys.readouterr().err.startswith(
        f"{path}: summary field 'outcome' must be one of success, lost, ")
    for transcript in (results / "heuristic").rglob("*.jsonl"):
        transcript.unlink()
    assert main(["report", "--results", str(results)]) == 1
    assert capsys.readouterr().err == (
        f"no transcripts under {results / 'heuristic'}\n")


def test_heuristic_wins_an_instance_without_the_open_verb(suite17, tmp_path):
    """basic-easy-04's plan needs no `open`, so it loads and plays without
    it; the heuristic then neither opens its closed wardrobe nor walks
    towards it, and wins."""
    path = tmp_path / "instances" / "basic-easy.json"
    path.parent.mkdir()
    payload = json.loads((suite17 / path.name).read_text(encoding="utf-8"))
    payload["instances"] = [i for i in payload["instances"]
                            if i["id"] == "basic-easy-04"]
    payload["instances"][0]["base_verbs"].remove("open")
    path.write_text(json.dumps(payload), encoding="utf-8")
    for agent in ("scripted", "heuristic"):
        assert main(["run", "--instances", str(path.parent), "--agent", agent,
                     "--out", str(tmp_path / "results")]) == 0
        summary = interpreter.read_episode_summary(
            tmp_path / "results" / agent / "basic-easy" / "basic-easy-04.jsonl")
        assert summary["outcome"] == "success"


def _set_step(n, command=None, feedback=None):
    """Replace the command or the feedback of step `n` of a walk."""
    def edit(walk):
        walk[n] = [command or walk[n][0], feedback or walk[n][1]]
    return edit


# seed-17 preexplore-hard-00 walks from the hallway to the living room,
# bedroom, living room, kitchen, pantry and back
@pytest.mark.parametrize("edit, fault", [
    (_set_step(0, feedback="You are on the moon."),
     "step 0 '> go living room': the engine's feedback is 'You are in a "
     "living room. "),
    (_set_step(1, command="> go boudoir"),
     "step 1 '> go boudoir' failed in resolution-fail: "),
    (_set_step(2, command="go living room"),
     "step 2 'go living room' does not start with '>'"),
    (_set_step(1, command="> go pantry"),
     "step 1 '> go pantry' failed in precondition-fail: "),
    (lambda walk: walk.pop(),
     "step 4 '> go pantry' ends the walk away from its start"),
], ids=["feedback", "noun", "prompt", "not-adjacent", "last-step-dropped"])
def test_a_preexploration_that_plays_otherwise_is_rejected_at_load(
        suite17, tmp_path, monkeypatch, edit, fault):
    path = tmp_path / "instances" / "preexplore-hard.json"
    path.parent.mkdir()
    payload = json.loads((suite17 / path.name).read_text(encoding="utf-8"))
    edit(payload["instances"][0]["preexploration"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    shutil.copy(suite17 / "preexplore-easy.json", path.parent)
    with pytest.raises(ValueError) as error:
        load_instances(path)
    message = str(error.value)
    assert message.startswith(f"{path}: instance 0 (preexplore-hard-00): "
                              f"field 'preexploration': {fault}")
    assert "\n" not in message
    monkeypatch.setattr("builtins.input", lambda prompt="": "done")
    for argv in (["run", "--agent", "heuristic", "--out", str(tmp_path / "out")],
                 ["play", "--id", "preexplore-easy-00"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--instances", str(path.parent)])
        assert exit_.value.code == message
    assert sorted(tmp_path.iterdir()) == [path.parent]


def _edit_prompt(old, new):
    return lambda prompt: prompt.replace(old, new)


_NEW_WORDS = "In addition to common actions, you can "


# the prompts of seed-17 limit-easy-00, which has a limit sentence, and of
# synthetic-medium-00 and synthetic-hard-00, which tell their new verbs
@pytest.mark.parametrize("family, edit, fault", [
    ("limit-easy", _edit_prompt(
        "You can have up to two objects in your inventory at the same "
        "time.\n\n", ""),
     "part 1 is 'Your goal for this game is: Put the orange on the couch, "
     "the pillow on the chair and the peach on the counter.', the engine's "
     "is 'You can have up to two objects in your inventory at the same "
     "time.'"),
    ("synthetic-medium", _edit_prompt("clould, jang and skeeb", "clould and jang"),
     f"part 1 is '{_NEW_WORDS}clould and jang.', the engine's is "
     f"'{_NEW_WORDS}skeeb, clould and jang.'"),
    ("synthetic-medium", _edit_prompt("can clould", "can blick, clould"),
     f"part 1 is '{_NEW_WORDS}blick, clould, jang and skeeb.', the engine's "
     f"is '{_NEW_WORDS}clould, jang and skeeb.'"),
    ("basic-easy", _edit_prompt("the plate on the shelf", "the zebra on the shelf"),
     "part 1 is 'Your goal for this game is: Put the zebra on the shelf, "),
], ids=["limit-dropped", "verb-missing", "verb-added", "goal-zebra"])
def test_a_prompt_that_is_not_the_engines_is_rejected_at_load(
        suite17, tmp_path, monkeypatch, family, edit, fault):
    path = tmp_path / "instances" / f"{family}.json"
    path.parent.mkdir()
    payload = json.loads((suite17 / path.name).read_text(encoding="utf-8"))
    row = payload["instances"][0]
    row["prompt"] = edit(row["prompt"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    shutil.copy(suite17 / "preexplore-easy.json", path.parent)
    with pytest.raises(ValueError) as error:
        load_instances(path)
    message = str(error.value)
    assert message.startswith(f"{path}: instance 0 ({family}-00): "
                              f"field 'prompt': {fault}")
    assert "\n" not in message
    monkeypatch.setattr("builtins.input", lambda prompt="": "done")
    for argv in (["run", "--agent", "heuristic", "--out", str(tmp_path / "out")],
                 ["play", "--id", "preexplore-easy-00"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--instances", str(path.parent)])
        assert exit_.value.code == message
    assert sorted(tmp_path.iterdir()) == [path.parent]


@pytest.mark.parametrize("edit, fault", [
    (lambda feedback: {**feedback, "success": feedback["success"] + " {bogus}"},
     "is not a map whose 'success' template names only ['contents', "
     "'entity_description', 'item', 'room_description']"),
    (lambda feedback: {k: v for k, v in feedback.items() if k != "success"},
     "is not a map of strings to strings with a success template"),
], ids=["unbound-name", "no-success"])
def test_feedback_no_turn_can_render_is_rejected_at_load(
        suite17, tmp_path, edit, fault):
    path = tmp_path / "instances" / "synthetic-hard.json"
    path.parent.mkdir()
    payload = json.loads((suite17 / path.name).read_text(encoding="utf-8"))
    action = payload["instances"][0]["extra_actions"][0]
    action["feedback"] = edit(action["feedback"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as error:
        load_instances(path)
    message = str(error.value)
    assert message.startswith(
        f"{path}: instance 0 (synthetic-hard-00): field 'extra_actions': "
        f"action {action['verb']!r}, feedback: ")
    assert fault in message
    for agent in ("scripted", "heuristic"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--agent", agent, "--instances", str(path.parent),
                  "--out", str(tmp_path / "out")])
        assert exit_.value.code == message
    assert sorted(tmp_path.iterdir()) == [path.parent]
    assert sorted(path.parent.iterdir()) == [path]


def test_new_words_load_in_any_order(suite17, tmp_path):
    # only the order in which the prompt tells the new words is free
    path = tmp_path / "synthetic-hard.json"
    payload = json.loads((suite17 / path.name).read_text(encoding="utf-8"))
    row = payload["instances"][0]
    told = "loorn, stint, sneant and stalt"
    assert told in row["prompt"]
    row["prompt"] = row["prompt"].replace(told, "stalt, sneant, stint and loorn")
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_instances(path)[0].prompt == row["prompt"]


def test_a_missing_instances_path_is_named(small_set, tmp_path):
    results = tmp_path / "results"
    assert main(["run", "--instances", str(small_set), "--agent", "heuristic",
                 "--out", str(results)]) == 0
    missing = tmp_path / "nowhere"
    for argv in (["run", "--agent", "heuristic", "--out", str(results)],
                 ["plan"], ["play"],
                 ["report", "--results", str(results),
                  "--out", str(tmp_path / "report")]):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--instances", str(missing)])
        assert exit_.value.code == f"{missing}: No such file or directory"


def test_a_scripted_run_renders_plans_only_at_load(suite17, tmp_path,
                                                    monkeypatch, cpus):
    """The loader reads each plan step back through `Parser.render` and
    keeps the commands; the episodes, in this process or in workers, play
    those and render nothing."""
    rendered = []
    render = ifbench.grammar.Parser.render
    load = ifbench.cli._load_instance_set

    def counting_render(self, *args):
        rendered.append(args)
        return render(self, *args)

    def load_then_forbid_render(*args):
        instances = load(*args)
        monkeypatch.setattr(ifbench.grammar.Parser, "render", forbidden)
        return instances

    def forbidden(self, *args):
        raise AssertionError("rendered after load")

    monkeypatch.setattr(ifbench.grammar.Parser, "render", counting_render)
    monkeypatch.setattr(ifbench.cli, "_load_instance_set", load_then_forbid_render)
    path = tmp_path / "instances" / "basic-hard.json"
    path.parent.mkdir()
    shutil.copy(suite17 / path.name, path)
    for workers in (1, 2):
        cpus(workers)
        rendered.clear()
        monkeypatch.setattr(ifbench.grammar.Parser, "render", counting_render)
        assert main(["run", "--instances", str(path.parent), "--agent",
                     "scripted", "--out", str(tmp_path / f"out{workers}")]) == 0
        plans = [i["optimal_plan"] for i in json.loads(path.read_text())["instances"]]
        assert len(rendered) == sum(map(len, plans))


@pytest.mark.parametrize("workers", [1, 3])
def test_run_worker_error_surfaces(small_set, tmp_path, monkeypatch, cpus,
                                   workers):
    # forked workers inherit the patched agent
    decide = ifbench.HeuristicAgent._decide

    def failing_decide(self):
        if self.episode.instance.family == "limit-hard":
            raise RuntimeError("heuristic issued a bad command")
        return decide(self)

    monkeypatch.setattr(ifbench.HeuristicAgent, "_decide", failing_decide)
    cpus(workers)
    with pytest.raises(RuntimeError, match="heuristic issued"):
        main(["run", "--instances", str(small_set), "--agent", "heuristic",
              "--out", str(tmp_path / "results")])
    assert not (tmp_path / "results" / "heuristic" / "scores.json").exists()


def test_run_human_and_llm_stay_in_process(small_set, tmp_path, monkeypatch,
                                           cpus):
    cpus(3)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("builtins.input", eof)
    llm = ["--agent", "llm", "--endpoint", "http://127.0.0.1:9/v1",
           "--model", "m", "--retries", "0", "--timeout", "0.2"]
    for i, agent in enumerate((["--agent", "human"], llm, llm + ["--parallel", "2"])):
        out = tmp_path / str(i)
        assert main(["run", "--instances", str(small_set), "--out", str(out),
                     *agent]) == 3  # every episode aborted by the agent
        assert len(list(out.rglob("*.jsonl"))) == 6


def test_heuristic_run_compiles_each_step_once(small_set, tmp_path, monkeypatch):
    # the episode and the heuristic agent share one engine, and so its steps
    one = tmp_path / "one.json"
    save_instances(load_instances(small_set / "limit-hard.json")[:1], one,
                   base_seed=23)
    compiled = []
    compile_step = interpreter.compile_step

    def counting_compile_step(world, action, grounded):
        compiled.append(grounded)
        return compile_step(world, action, grounded)

    monkeypatch.setattr(interpreter, "compile_step", counting_compile_step)
    assert main(["run", "--instances", str(one), "--agent", "heuristic",
                 "--out", str(tmp_path / "results")]) == 0
    assert compiled and len(compiled) == len(set(compiled))


def test_run_family_filter(small_set, tmp_path):
    out = tmp_path / "filtered"
    main(["run", "--instances", str(small_set), "--agent", "scripted",
          "--out", str(out), "--families", "basic-easy"])
    scores = json.loads((out / "scripted" / "scores.json").read_text())
    assert list(scores["experiments"]) == ["basic-easy"]


def test_run_on_a_directory_without_instances(tmp_path):
    with pytest.raises(SystemExit, match="no instances found under"):
        main(["run", "--instances", str(tmp_path), "--agent", "scripted",
              "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given", [["--model", "m"],
                                   ["--endpoint", "http://127.0.0.1:9/v1"]])
def test_run_llm_needs_endpoint_and_model(small_set, tmp_path, given):
    with pytest.raises(SystemExit, match="--endpoint and --model are required"):
        main(["run", "--instances", str(small_set), "--agent", "llm",
              "--out", str(tmp_path / "x"), *given])


@pytest.mark.parametrize("drop", [False, True])
def test_run_llm_keeps_one_connection_per_thread(small_set, tmp_path,
                                                 kept_alive_server, drop):
    # dropped after each reply, each connection is reopened unlogged
    server = kept_alive_server
    server.script, server.drop = [("ok", "> look")] * 12 + [("ok", "> done")], drop
    assert main(["run", "--instances", str(small_set), "--agent", "llm",
                 "--parallel", "2", "--model", "stub-model", "--endpoint",
                 f"http://127.0.0.1:{server.server_address[1]}/v1",
                 "--out", str(tmp_path / "results")]) == 0
    logs = [json.loads(path.read_text(encoding="utf-8").splitlines()[-1])["agent_log"]
            for path in (tmp_path / "results").rglob("*.jsonl")]
    assert len(logs) == 6
    assert [entry["attempt"] for log in logs for entry in log] == [1] * 18
    assert len(server.received) == 18
    if drop:
        assert len(server.connections) == 18
    else:
        assert len(server.connections) <= 2


def test_run_llm_unreachable_exit_code(small_set, tmp_path):
    code = main(["run", "--instances", str(small_set), "--agent", "llm",
                 "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
                 "--retries", "0", "--timeout", "0.2",
                 "--families", "basic-easy", "--out", str(tmp_path / "x")])
    assert code == 3


def test_plan_command(small_set, capsys):
    code = main(["plan", "--instances",
                 str(small_set / "basic-easy.json"), "--index", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["actions"][-1] == "done"
    assert payload["length"] == len(payload["actions"])
    instance = ifbench.load_instances(small_set / "basic-easy.json")[0]
    assert payload["length"] == ifbench.solve_optimal(instance).length


def test_play_command(small_set, monkeypatch, capsys):
    lines = iter(["done"])
    monkeypatch.setattr("builtins.input",
                        lambda prompt="": next(lines))
    code = main(["play", "--instances", str(small_set / "basic-easy.json"),
                 "--index", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lost after 1 turns" in out
    assert "goal success rate 0" in out


def test_play_eof_aborts(small_set, monkeypatch, capsys):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    code = main(["play", "--instances", str(small_set / "basic-easy.json")])
    assert code == 0
    assert "aborted-agent" in capsys.readouterr().out


def test_report_missing_results(tmp_path):
    assert main(["report", "--results", str(tmp_path)]) == 1


def test_report_print_only(small_set, tmp_path, capsys):
    results = tmp_path / "results"
    main(["run", "--instances", str(small_set), "--agent", "scripted",
          "--out", str(results), "--families", "basic-easy"])
    capsys.readouterr()
    assert main(["report", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert "experiment" in out and "basic-easy" in out


def test_plan_unknown_id(small_set):
    with pytest.raises(SystemExit):
        main(["plan", "--instances", str(small_set), "--id", "nope-99"])


def test_summary_guard(tmp_path):
    from ifbench import read_episode_summary
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "turn"}\n')
    with pytest.raises(ValueError):
        read_episode_summary(bad)


def test_run_by_id_selection(small_set, capsys):
    payload = json.loads((small_set / "basic-easy.json").read_text())
    iid = payload["instances"][0]["id"]
    code = main(["plan", "--instances", str(small_set), "--id", iid])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["instance_id"] == iid


def test_instance_file_error_is_one_line(small_set, tmp_path):
    broken = tmp_path / "broken.json"
    payload = json.loads((small_set / "basic-easy.json").read_text())
    del payload["instances"][1]["goals"]
    broken.write_text(json.dumps(payload))
    expected = f"{broken}: instance 1 (basic-easy-01) lacks field 'goals'"
    src = str(Path(ifbench.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "ifbench.cli", "run", "--instances", str(broken),
         "--agent", "heuristic", "--out", str(tmp_path / "results")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode != 0
    assert run.stderr.strip() == expected
    assert "Traceback" not in run.stdout + run.stderr

    results = tmp_path / "results"
    assert main(["run", "--instances", str(small_set), "--families",
                 "basic-easy", "--agent", "heuristic", "--out", str(results)]) == 0
    for argv in (["plan", "--instances", str(broken)],
                 ["play", "--instances", str(broken)],
                 ["report", "--results", str(results), "--instances",
                  str(broken), "--out", str(tmp_path / "report")]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == expected


def _edited_copy(small_set, tmp_path, edit) -> Path:
    """A directory holding `small_set`'s basic-easy file, its instances
    passed through `edit`."""
    out = tmp_path / "instances"
    out.mkdir()
    payload = json.loads((small_set / "basic-easy.json").read_text())
    edit(payload["instances"])
    (out / "basic-easy.json").write_text(json.dumps(payload))
    return out


def test_instance_set_rejects_a_shared_id(small_set, tmp_path):
    def share(rows):
        rows[1]["id"] = rows[0]["id"]
    instances = _edited_copy(small_set, tmp_path, share)
    path = instances / "basic-easy.json"
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--instances", str(instances), "--agent", "scripted",
              "--out", str(tmp_path / "out")])
    assert exit_.value.code == (f"{path}: instance 0 (basic-easy-00) and "
                                f"{path}: instance 1 (basic-easy-00) have the "
                                "same id")
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_unknown_family(small_set, tmp_path):
    def misspell(rows):
        rows[1]["family"] = "basic-typo"
    instances = _edited_copy(small_set, tmp_path, misspell)
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--instances", str(instances), "--agent", "scripted",
              "--out", str(tmp_path / "out")])
    assert exit_.value.code == (f"{instances / 'basic-easy.json'}: instance 1 "
                                "(basic-easy-01): unknown family 'basic-typo'")
    # the family plays no part in planning one instance
    assert main(["plan", "--instances", str(instances), "--index", "1"]) == 0


@pytest.mark.parametrize("argv", [
    "generate --count 0", "generate --seed -1", "run --retries -1",
    "run --temperature -1", "run --temperature nan", "run --temperature inf",
    "run --timeout 0", "run --timeout -1",
    "run --timeout nan", "run --timeout inf", "run --timeout 1e10",
    "run --max-tokens 0", "run --parallel 0",
    "run --parallel 2", "run --families ,", "generate --families ,",
    "plan --index 99", "plan --index -1", "play --index 16"])
def test_bad_numbers_are_usage_errors(small_set, tmp_path, capsys, argv):
    command, flag, _ = argv.split()
    instances = small_set / "basic-easy.json"
    required = {"generate": ["--out", str(tmp_path / "out")],
                "run": ["--instances", str(small_set), "--agent", "scripted",
                        "--out", str(tmp_path / "out")],
                "plan": ["--instances", str(instances)],
                "play": ["--instances", str(instances)]}
    with pytest.raises(SystemExit) as exit_:
        main(argv.split() + required[command])
    message = f"{exit_.value.code} {capsys.readouterr().err}"
    assert flag in message
    if flag == "--index":
        assert str(instances) in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", ["", '{"type": "turn"}\n{"type": "summ'])
def test_summary_guard_names_file(tmp_path, content):
    from ifbench import read_episode_summary
    bad = tmp_path / "bad.jsonl"
    bad.write_text(content)
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        read_episode_summary(bad)


def _imported_with(package: str, module: str) -> bool:
    src = str(Path(ifbench.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {package}; print({module!r} in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    return run.stdout.strip() == "True"


def test_cli_import_leaves_urllib_request_out():
    # only the llm agent speaks HTTP, and it imports the client itself
    assert not _imported_with("ifbench.cli", "urllib.request")


def test_cli_import_leaves_numpy_out():
    # the generator draws its stream from the standard library, and the
    # package exports its names
    assert not _imported_with("ifbench.cli", "numpy")
    assert not _imported_with("ifbench.generate", "numpy")
    for name in ("GenerationExhausted", "WalkNotFound", "generate_basic",
                 "generate_family", "generate_preexploration"):
        assert getattr(ifbench, name) is getattr(ifbench.generate, name), name


def _modules_after(*argv: str) -> set[str]:
    """The modules a fresh process holds after ``ifbench.cli.main(argv)``,
    or, given no arguments, after building the parser; the command must
    succeed."""
    src = str(Path(ifbench.__file__).parents[1])
    code = ("import sys\nimport ifbench.cli as cli\n"
            f"argv = {list(argv)!r}\n"
            "code = cli.main(argv) if argv else cli.build_arg_parser() and 0\n"
            "print(*sorted(sys.modules))\nsys.exit(code)\n")
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**env, "PYTHONPATH": src})
    return set(run.stdout.splitlines()[-1].split())


def test_cli_import_and_parser_load_no_engine_module():
    loaded = _modules_after()
    assert {m for m in loaded if m.startswith("ifbench")} == {"ifbench",
                                                             "ifbench.cli"}
    assert not loaded & {"multiprocessing", "concurrent.futures.process"}


def test_report_loads_no_agent_planner_generator_or_pool(small_set, tmp_path):
    results = tmp_path / "results"
    assert main(["run", "--instances", str(small_set), "--agent", "scripted",
                 "--out", str(results)]) == 0
    loaded = _modules_after("report", "--results", str(results), "--instances",
                            str(small_set), "--out", str(tmp_path / "report"))
    assert "ifbench.instance" in loaded and "ifbench.metrics" in loaded
    assert not loaded & {"ifbench.agents", "ifbench.planner", "ifbench.generate",
                         "ifbench.pseudowords", "multiprocessing"}


def test_run_llm_loads_no_planner_generator_or_pool(small_set, tmp_path,
                                                    stub_server):
    loaded = _modules_after(
        "run", "--instances", str(small_set), "--families", "basic-easy",
        "--agent", "llm", "--model", "stub-model", "--endpoint",
        f"http://127.0.0.1:{stub_server.server_address[1]}/v1",
        "--out", str(tmp_path / "results"))
    assert stub_server.received
    assert "ifbench.agents" in loaded
    assert not loaded & {"ifbench.planner", "ifbench.generate",
                         "ifbench.pseudowords", "multiprocessing"}


def test_package_names_resolve_on_first_use():
    src = str(Path(ifbench.__file__).parents[1])
    code = textwrap.dedent("""\
        import importlib, sys
        import ifbench
        assert [m for m in sys.modules if m.startswith("ifbench")] == ["ifbench"]
        assert ifbench.generate.generate_family.__module__ == "ifbench.generate"
        assert len(ifbench.__all__) == 68 == len(set(ifbench.__all__))
        assert ifbench.__all__ == sorted(ifbench.__all__)
        for name in ifbench.__all__:
            owner = importlib.import_module(f"ifbench.{ifbench._OWNER[name]}")
            assert getattr(ifbench, name) is getattr(owner, name), name
        try:
            ifbench.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown name resolved")
        assert dir(ifbench) == sorted([*ifbench.__all__, "__version__"])
        """)
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
