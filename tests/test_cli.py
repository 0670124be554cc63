import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ifbench
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
    "run --retries -1", "run --temperature -1", "plan --index 99",
    "plan --index -1", "play --index 16"])
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


def test_cli_import_leaves_requests_out():
    src = str(Path(ifbench.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, ifbench.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"
