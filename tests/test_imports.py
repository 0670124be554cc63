"""The package's import graph, read from the source with `ast`: the
module-level imports between ifbench modules form no cycle, an ifbench
module is imported inside a function only where `FUNCTION_LEVEL` gives the
reason, every name an annotation uses is bound in its module, and every
name a module-level import binds is used in its module or is one of the
names the package exports from it."""

import ast
import builtins
from pathlib import Path

import ifbench

PACKAGE = Path(ifbench.__file__).parent

# (importing module, imported module) -> why the import sits in a function
_FOR_START_UP = "a command imports only what it runs, for start-up"
FUNCTION_LEVEL = {("cli", module): _FOR_START_UP for module in
                  ("agents", "generate", "instance", "interpreter", "metrics")}


def _targets(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The ifbench modules an import statement names; the package itself
    is ``__init__``."""
    if isinstance(node, ast.Import):
        parts = [a.name.split(".") for a in node.names]
        return [p[1] if len(p) > 1 else "__init__"
                for p in parts if p[0] == "ifbench"]
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "ifbench":
            return []
        module = parts[1] if len(parts) > 1 else None
    elif node.level == 1:
        module = node.module
    else:
        return []
    if module is not None:
        return [module]
    # `from . import x`: a submodule, or a name of the package itself
    return [a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__"
            for a in node.names]


def _type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imports(nodes, in_function=False):
    """Yield (ifbench module, whether inside a function) for each import
    among `nodes` and below them, leaving out ``if TYPE_CHECKING:`` bodies."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _targets(node):
                yield module, in_function
        elif isinstance(node, ast.If) and _type_checking(node.test):
            yield from _imports(node.orelse, in_function)
        else:
            inside = in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            yield from _imports(ast.iter_child_nodes(node), inside)


def _package_imports() -> dict[str, list[tuple[str, bool]]]:
    return {path.stem: list(_imports(ast.parse(path.read_text()).body))
            for path in sorted(PACKAGE.glob("*.py"))}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A path that leaves a module and comes back to it, if there is one."""
    done: set[str] = set()

    def visit(module, path):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        for target in sorted(graph.get(module, ())):
            found = visit(target, path + [module])
            if found:
                return found
        done.add(module)
        return None

    for module in sorted(graph):
        found = visit(module, [])
        if found:
            return found
    return None


def test_reader_sees_every_kind_of_import():
    source = ("import ifbench.world\nfrom typing import TYPE_CHECKING\n"
              "from . import grammar, __version__\nfrom .planner import x\n"
              "if TYPE_CHECKING:\n    from .instance import Instance\n"
              "else:\n    import ifbench\n"
              "class C:\n    def f(self):\n        from ifbench.cli import main\n")
    assert list(_imports(ast.parse(source).body)) == [
        ("world", False), ("grammar", False), ("__init__", False),
        ("planner", False), ("__init__", False), ("cli", True)]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": {"c"}}) is None


def test_module_level_imports_form_no_cycle():
    imports = _package_imports()
    graph = {module: {target for target, inside in found
                      if not inside and target != module}
             for module, found in imports.items()}
    assert "grammar" in graph["interpreter"]
    assert "instance" not in graph["interpreter"]  # only under TYPE_CHECKING
    assert _cycle(graph) is None


def test_function_level_imports_have_a_reason():
    found = {(module, target) for module, imports in _package_imports().items()
             for target, inside in imports if inside}
    assert found == set(FUNCTION_LEVEL)


def _annotation_names(tree: ast.Module):
    """Yield (line, name) for each name that an annotation of `tree` uses,
    in a string annotation too."""
    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.lineno, sub.id
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                for _, name in names(ast.parse(sub.value, mode="eval")):
                    yield sub.lineno, name

    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield from names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield from names(arg.annotation)
            if node.returns is not None:
                yield from names(node.returns)


def _module_names(nodes) -> set[str]:
    """The names that module-level statements bind, those under ``if`` and
    ``try`` (such as ``if TYPE_CHECKING:`` imports) included."""
    bound = set()
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                bound.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            bound |= _module_names(ast.iter_child_nodes(node))
    return bound


def _unbound_annotation_names(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    known = _module_names(tree.body) | set(dir(builtins))
    return sorted({(line, name) for line, name in _annotation_names(tree)
                   if name not in known})


def test_reader_sees_every_annotation():
    source = ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
              "    from .metrics import Scores\n"
              "def f(a: Scores, *b: 'Later', c: int = 0, **d: Gone) -> list[Nope]:\n"
              "    x: Local = 1\n")
    assert _unbound_annotation_names(source) == [
        (4, "Gone"), (4, "Later"), (4, "Nope"), (5, "Local")]


def test_every_annotation_name_is_bound():
    # a name an annotation uses is imported (under TYPE_CHECKING counts),
    # defined at module level, or a builtin, so the hints can be resolved
    unbound = {path.stem: found for path in sorted(PACKAGE.glob("*.py"))
               if (found := _unbound_annotation_names(path.read_text()))}
    assert unbound == {}


def _imported_names(nodes) -> dict[str, int]:
    """The names that module-level imports bind, those under ``if`` and
    ``try`` included, with the line of each; ``__future__`` binds none."""
    bound = {}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                bound.update(((a.asname or a.name).split(".")[0], node.lineno)
                             for a in node.names)
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            bound.update(_imported_names(ast.iter_child_nodes(node)))
    return bound


def _unused_imports(source: str, exported=frozenset()) -> list[tuple[int, str]]:
    """(line, name) for each name a module-level import binds that the
    module neither reads (in code or in an annotation, a string one too)
    nor exports (`exported`)."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(name for _, name in _annotation_names(tree))
    return sorted((line, name) for name, line in _imported_names(tree.body).items()
                  if name not in used and name not in exported)


def test_reader_sees_every_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from typing import TYPE_CHECKING, Any\nif TYPE_CHECKING:\n"
              "    from .world import Fact, WorldDef\n"
              "from .grammar import Lexicon as Lex, Parser, build_parser\n"
              "def f(x: 'Fact') -> Lex:\n    return os.sep\n")
    assert _unused_imports(source, {"build_parser"}) == [
        (3, "Any"), (5, "WorldDef"), (6, "Parser")]


def test_every_module_level_import_is_used():
    unused = {path.stem: found for path in sorted(PACKAGE.glob("*.py"))
              if (found := _unused_imports(
                  path.read_text(), set(ifbench._NAMES.get(path.stem, "").split())))}
    assert unused == {}


def _calls_of(name: str, nodes, where=None):
    """Yield the name of the function around each call of `name` (a bare
    name or an attribute) among `nodes` and below them; None at module or
    class level."""
    for node in nodes:
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield where
        inside = (node.name if isinstance(node, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))
                  else where)
        yield from _calls_of(name, ast.iter_child_nodes(node), inside)


def test_reader_sees_every_call():
    source = ("ActionDef()\ndef f():\n    def g():\n        return m.ActionDef()\n"
              "    return ActionDef(1), ActionDefs()\nclass C:\n    x = [ActionDef()]\n")
    assert list(_calls_of("ActionDef", ast.parse(source).body)) == [
        None, "g", "f", None]


def test_only_the_reader_builds_an_action():
    # one way in for every `ActionDef`: the checks of `action_from_json`
    built = {(path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
             for where in _calls_of("ActionDef",
                                    ast.parse(path.read_text()).body)}
    assert built == {("grammar", "action_from_json")}
