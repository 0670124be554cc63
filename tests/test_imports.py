"""The package's import graph, read from the source with `ast`: the
module-level imports between ifbench modules form no cycle, and an ifbench
module is imported inside a function only where `FUNCTION_LEVEL` gives the
reason."""

import ast
from pathlib import Path

import ifbench

PACKAGE = Path(ifbench.__file__).parent

# (importing module, imported module) -> why the import sits in a function
FUNCTION_LEVEL = {
    ("agents", "__init__"): "the HTTP User-Agent names the package version, "
                            "and __init__ imports agents",
}


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
