"""Module layering of the package: the graph of imports between its modules
has no cycle, and every such import sits at module level, where the graph
is visible, never inside a function body.  The X^-/X^+ layout of the
eigenvector matrix is known only to `spectral`: no other module reads it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latticegap"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(path.read_text(encoding="utf-8"))
         for name, path in MODULES.items()}


def _sibling_imports(node: ast.AST) -> list[str]:
    """Package modules a relative or `latticegap.`-qualified import names."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [n[1] for n in names if len(n) > 1 and n[0] == "latticegap"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "latticegap":
            return []
        parts = parts[1:]
    else:
        parts = (node.module or "").split(".") if node.module else []
    if parts:
        return [parts[0]]
    # "from . import x": each name is a module, or a name of the package
    return [alias.name if alias.name in MODULES else "__init__"
            for alias in node.names]


def _imports(tree: ast.AST):
    """(imported module, line, enclosing function or None) for every import."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = getattr(child, "name", "<lambda>")
            for target in _sibling_imports(child):
                found.append((target, child.lineno, function))
            visit(child, inner)

    visit(tree, None)
    return found


GRAPH = {name: _imports(tree) for name, tree in TREES.items()}


def test_package_modules_found():
    assert {"energy", "solver", "lattice", "continuation"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_inside_functions(module):
    nested = [f"line {line} in {function}(): imports {target}"
              for target, line, function in GRAPH[module] if function is not None]
    assert not nested, f"{module}.py: " + "; ".join(nested)


def test_import_graph_is_acyclic():
    edges = {name: sorted({target for target, _, _ in found if target != name})
             for name, found in GRAPH.items()}
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(name):
        state[name] = "open"
        path.append(name)
        for target in edges.get(name, ()):
            if state.get(target) == "open":
                cycle = path[path.index(target):] + [target]
                pytest.fail("import cycle: " + " -> ".join(cycle))
            if target not in state:
                visit(target)
        path.pop()
        state[name] = "done"

    for name in sorted(edges):
        if name not in state:
            visit(name)


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"spectral"}))
def test_eigenvectors_read_only_in_spectral(module):
    lines = [node.lineno for node in ast.walk(TREES[module])
             if isinstance(node, ast.Attribute) and node.attr == "eigenvectors"]
    assert not lines, f"{module}.py reads .eigenvectors at lines {lines}"
