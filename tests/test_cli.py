import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ifbench
import ifbench.cli
from ifbench import interpreter, load_instances, save_instances
from ifbench.cli import main


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
    """Set the number of CPUs that `generate` takes to be usable."""
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

    monkeypatch.setattr(ifbench.cli, "ProcessPoolExecutor", no_pool)
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


def test_run_heuristic_parallel_deterministic(small_set, tmp_path):
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    for out, workers in ((first, "1"), (second, "3")):
        code = main(["run", "--instances", str(small_set), "--agent",
                     "heuristic", "--out", str(out), "--parallel", workers])
        assert code == 0
    assert _tree_bytes(first) == _tree_bytes(second)


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


def test_run_llm_unreachable_exit_code(small_set, tmp_path):
    code = main(["run", "--instances", str(small_set), "--agent", "llm",
                 "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
                 "--retries", "0", "--timeout", "0.2",
                 "--families", "basic-easy", "--out", str(tmp_path / "x")])
    assert code == 3


def test_run_llm_dry_run_excludes_unreachable(small_set, tmp_path, capsys):
    code = main(["run", "--instances", str(small_set), "--agent", "llm",
                 "--endpoint", "http://127.0.0.1:9/v1", "--model", "m",
                 "--retries", "0", "--timeout", "0.2", "--dry-run",
                 "--families", "basic-easy", "--out", str(tmp_path / "x")])
    assert code == 2  # nothing scorable remains


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


@pytest.mark.parametrize("argv", [
    "generate --count 0", "generate --seed -1", "run --turn-limit 0",
    "run --retries -1", "run --temperature -1", "run --parallel 0",
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


def _imported_with_cli(module: str) -> bool:
    src = str(Path(ifbench.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c",
         f"import sys, ifbench.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    return run.stdout.strip() == "True"


def test_cli_import_leaves_requests_out():
    assert not _imported_with_cli("requests")


def test_cli_import_leaves_numpy_out():
    # only `generate` needs numpy; the package serves its names on first use
    assert not _imported_with_cli("numpy")
    assert ifbench.generate_family is ifbench.generate.generate_family
