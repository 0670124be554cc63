import importlib.util
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _script():
    spec = importlib.util.spec_from_file_location(
        "check_mutants", ROOT / "scripts" / "check_mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowed_survivor_names_a_raise_that_exists():
    script = _script()
    assert script.allowed_unmatched(script.mutants(ROOT)) == []


def test_each_mutant_makes_one_raise_pass_and_keeps_its_lines():
    texts = {path.name: path.read_text(encoding="utf-8").splitlines()
             for path in (ROOT / "src" / "ifbench").glob("*.py")}
    for mutant in _script().mutants(ROOT):
        lines, changed = texts[mutant.file], mutant.text.splitlines()
        assert len(changed) == len(lines)
        assert lines[mutant.line - 1].lstrip().startswith("raise")
        assert changed[mutant.line - 1].strip() == "pass"
        assert [n for n, (a, b) in enumerate(zip(lines, changed), 1)
                if a != b][0] == mutant.line
