"""Module layering of the package: the graph of imports between its modules
has no cycle, and every such import sits at module level, where the graph
is visible, never inside a function body.  The parity-sector blocks of the
eigenbasis are known only to `spectral`: no other module reads them, and
its one dense single-matrix `eigh` is the only place that picks a LAPACK
driver.
Only `solver` starts processes, from one `ProcessPoolExecutor`.
Every function the benchmark tracer wraps exists under its wrapped name.
Every name the package exports has a caller outside the tests, except the
few library-only names listed with their reasons."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latticegap"
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
             if isinstance(node, ast.Attribute) and node.attr in ("_blocks", "_basis")]
    assert not lines, f"{module}.py reads the split's blocks at lines {lines}"


def _eigh_calls():
    """(module, call) for every call of a function named `eigh` under src/."""
    return [(name, node) for name, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "eigh"]


def test_one_dense_eigh_and_it_names_its_driver():
    # the generalized pencils (a second matrix) of `hardy` are out of scope
    single = [(name, node) for name, node in _eigh_calls()
              if len(node.args) == 1 and not any(k.arg == "b" for k in node.keywords)]
    assert [name for name, _ in single] == ["spectral"]
    drivers = [ast.literal_eval(k.value) for k in single[0][1].keywords
               if k.arg == "driver"]
    assert drivers == ["evd"]


PROCESS_MODULES = ("multiprocessing", "concurrent")


def _process_imports(tree):
    """Top-level names of the process modules an import statement names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [n for n in names if n.split(".")[0] in PROCESS_MODULES]
    return found


def test_one_process_pool_and_only_solver_starts_processes():
    importers = sorted(name for name, tree in TREES.items() if _process_imports(tree))
    assert importers == ["solver"]
    pools = [node.lineno for node in ast.walk(TREES["solver"])
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "ProcessPoolExecutor"]
    assert len(pools) == 1, f"ProcessPoolExecutor calls at solver.py lines {pools}"


def test_tracer_wraps_resolve():
    # loading the tracer only defines its tables; install() is never called
    spec = importlib.util.spec_from_file_location(
        "latticegap_tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.WRAPS if not hasattr(owner, attr)]
    assert tracer.WRAPS and not missing, f"tracer wraps missing names: {missing}"


# exported names with no caller in src/, demos/ or benchmarks/, kept on purpose
LIBRARY_ONLY = {
    "read_field": "reads back the field files that write_field writes",
    "delta_field": "the point-mass input field of the discrete calculus",
    "GRAPH_WEIGHT": "the graph-metric weight; the CLI builds it from hardy.metric",
    "ZeroNonlinearity": "the model f = 0 of the linear problem; the validator refuses it",
    "assemble_torus_operator": "the periodic operator of the planned torus box",
    "zero_field": "the trivial state u = 0, a field every box has",
}


def _loaded_names(paths) -> set[str]:
    """Every name and attribute that the files read."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_exports_have_callers_outside_tests():
    exported = {alias.asname or alias.name for node in TREES["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [path for name, path in MODULES.items() if name != "__init__"]
    callers += sorted((ROOT / "demos").glob("*.py"))
    callers += sorted((ROOT / "benchmarks").glob("*.py"))
    used = _loaded_names(callers)
    test_only = sorted(exported - used - set(LIBRARY_ONLY))
    assert not test_only, f"exports only the tests call: {test_only}"
    stale = sorted(set(LIBRARY_ONLY) - (exported - used))
    assert not stale, f"LIBRARY_ONLY lists used or unexported names: {stale}"
