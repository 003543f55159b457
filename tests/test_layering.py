"""Module layering of the package: the graph of imports between its modules
has no cycle, and every such import sits at module level, where the graph
is visible, never inside a function body.  The parity-sector blocks of the
eigenbasis are known only to `spectral`: no other module reads them, and
its one dense single-matrix `eigh` is the only place that picks a LAPACK
driver.  Other modules read a split only through its contract (box,
operator, gap, eigenvalues, size, negative_count, the slices minus/plus,
intrusions, values_of and coords_of), plus `plus_sectors` in `hardy`;
`plus_sectors` is defined once, by `SectorStream`, which `SpectralSplit`
extends.
Only `solver` starts processes, from one `ProcessPoolExecutor`.
The solver draws random numbers in one place only, the multistart's random
starts; every exit check, the maximality certificate included, is
deterministic.
The inner maximization reports every exit as a returned status: `_inner_core`
raises nothing, and `_outer_single`, which reads that status, has no `try`.
The models are functions of u alone: every call of a model's f, F or df
passes the value array and nothing else.
Every function the benchmark tracer wraps exists under its wrapped name.
split.npy's records have one writer, `spectral.write_split` (the one
`np.save`), and one reader, `spectral._read_record` (the one `np.load`).
In `cli`, a stale artifact is refused only by the loader of gap.json and
constants.json and by the reader of split.npy, and no function catches
EOFError: `spectral` maps a split record it cannot read.
`energy.SiteTerms` states each term of J_rho once for every coupling and
never compares the coupling; only `solver.solve_ground_state` builds one,
and every other function takes it built.  `solver` takes only the Hardy
weight from `hardy`; the box constants come from its caller.
Each input rule has one owner that states it: the coupling's sign
(`hardy.check_coupling`), a field on the split's box, the dimension range,
p > 2, the Hardy metrics, the checkerboard's default shift, the dense site
budget, the Bloch grid's minimum and stack bound, the boundary layers
below the radius, the report's positive couplings, a site's shape, the
potential's dimension and the Hardy commands' N >= 3.  The CLI states none
of these limits: it loads neither their constants nor
`SolverConfig.boundary_layers`, and calls the owners instead; `hardy`
leaves the dense budget to `spectral` too.
Every name the package exports has a caller outside the tests, except the
few library-only names listed with their reasons.
The artifact fields of the Nehari-Pankov residuals are named once, by
`energy.NehariResidual.to_dict`, and the residuals are judged once, by
`solver.polish_newton`: no other function compares one, and
`solver.solve_ground_state` does not read them.
`nonlinearity` holds no tuned threshold: its only module-level numbers are
the validator's sample grid, and every bound it checks is one the model
declares.
A `StateRecord` is recognised in one place, `energy.state_record`: no other
function asks `isinstance(u, StateRecord)`, so every reader of a state
takes the one path that derives E^T u, J'(u) and E^T r once.
Only `jsonio` formats a real for an artifact: no other module writes a
format spec of 15 or more digits (`.17g`, say); they print reals through
`jsonio.real`."""

import ast
import importlib.util
import re
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


# what other modules may read of a split; `plus_sectors` is for hardy alone
SPLIT_CONTRACT = {"box", "operator", "gap", "eigenvalues", "size", "negative_count",
                  "minus", "plus", "intrusions", "values_of", "coords_of"}
SPLITS = {"split", "self.split", "slab.split", "terms.split"}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"spectral"}))
def test_split_read_only_through_its_contract(module):
    allowed = SPLIT_CONTRACT | ({"plus_sectors"} if module == "hardy" else set())
    extra = [f"{ast.unparse(node)} at line {node.lineno}"
             for node in ast.walk(TREES[module])
             if isinstance(node, ast.Attribute) and ast.unparse(node.value) in SPLITS
             and node.attr not in allowed]
    assert not extra, f"{module}.py reads outside the split contract: {extra}"


def test_plus_sectors_defined_once():
    assert _owners(lambda node: isinstance(node, ast.FunctionDef)
                   and node.name == "plus_sectors") == {"spectral.SectorStream"}


def test_only_hardy_reads_plus_sectors():
    readers = sorted(name for name, tree in TREES.items() if name != "spectral"
                     and any(isinstance(node, ast.Attribute)
                             and node.attr == "plus_sectors" for node in ast.walk(tree)))
    assert readers == ["hardy"]


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


def test_solver_draws_random_numbers_in_one_place():
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.Call) and \
                    getattr(child.func, "attr", None) == "default_rng":
                found.append(function)
            visit(child, inner)

    visit(TREES["solver"], None)
    assert found == ["outer_minimize"]


@pytest.mark.parametrize("function, statement", [("_inner_core", ast.Raise),
                                                 ("_outer_single", ast.Try)])
def test_inner_exits_are_statuses(function, statement):
    body = next(node for node in TREES["solver"].body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    found = [node.lineno for node in ast.walk(body) if isinstance(node, statement)]
    assert not found, f"{statement.__name__} in solver.{function} at lines {found}"


MODEL_METHODS = ("f", "F", "df")


def test_models_are_called_with_values_only():
    calls = [(name, node) for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in MODEL_METHODS]
    assert calls, "no model calls found"
    extra = [f"{name}.py line {node.lineno}: .{node.func.attr}() with "
             f"{len(node.args)} arguments" for name, node in calls
             if len(node.args) != 1 or node.keywords]
    assert not extra, "; ".join(extra)


def test_tracer_wraps_resolve():
    # loading the tracer only defines its tables; install() is never called
    spec = importlib.util.spec_from_file_location(
        "latticegap_tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.WRAPS if not hasattr(owner, attr)]
    assert tracer.WRAPS and not missing, f"tracer wraps missing names: {missing}"


def test_split_records_have_one_writer_and_one_reader():
    def calls(attr):
        return lambda node: isinstance(node, ast.Call) and \
            ast.unparse(node.func) in (f"np.{attr}", f"numpy.{attr}")

    assert _owners(calls("save")) == {"spectral.write_split"}
    assert _owners(calls("load")) == {"spectral._read_record"}


def test_no_cli_function_catches_eof():
    catchers = [node.lineno for node in ast.walk(TREES["cli"])
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and any(isinstance(name, ast.Name) and name.id == "EOFError"
                        for name in ast.walk(node.type))]
    assert not catchers, f"cli.py catches EOFError at lines {catchers}"


def test_certification_missing_raised_only_by_the_loaders():
    raisers = {node.name for node in TREES["cli"].body
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(name, ast.Name)
                       and name.id == "CertificationMissingError"
                       for name in ast.walk(node))}
    assert raisers == {"_load_artifact", "_load_split_file"}


def _owners(match) -> set[str]:
    """The "module.Class.function" enclosing each node of src/ that `match`
    accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add(".".join(scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            visit(child, inner)

    for name, tree in TREES.items():
        visit(tree, [name])
    return found


def test_state_records_have_one_recogniser():
    def recognises(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" \
            and re.search(r"\bStateRecord\b", ast.unparse(node.args[1])) is not None

    assert _owners(recognises) == {"energy.state_record"}


# a fragment of each input rule's refusal -> the functions that may raise it
RULE_OWNERS = {
    "rho must be >= 0": {"hardy.check_coupling"},
    "box does not match": {"spectral.check_on_box"},
    "dimension must be in": {"lattice.BoxDomain.__post_init__"},
    "p > 2": {"nonlinearity.PowerNonlinearity.__post_init__"},
    "metric must be": {"hardy.HardyWeight.__post_init__"},
    "above the budget": {"spectral.check_dense_budget"},
    "grid resolution must be": {"spectral.check_bloch_grid"},
    "Bloch stack bound": {"spectral.check_bloch_grid"},
    "below the box radius": {"solver.check_boundary_layers"},
    "positive couplings": {"continuation.check_report_couplings"},
    "site has shape": {"lattice.BoxDomain.contains"},
    "potential dimension": {"spectral.PeriodicPotential.on_box"},
    "N >= 3": {"hardy.check_hardy_dimension"},
}


@pytest.mark.parametrize("fragment", sorted(RULE_OWNERS))
def test_input_rule_refused_only_by_its_owner(fragment):
    def refuses(node):
        return isinstance(node, ast.Raise) and node.exc is not None and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str)
            and fragment in part.value for part in ast.walk(node.exc))

    assert _owners(refuses) == RULE_OWNERS[fragment]


def _read_names(tree) -> set[str]:
    """Every name a module imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_limits_are_read_only_by_their_owners():
    limits = {"DENSE_EIG_BUDGET", "MIN_BLOCH_GRID", "MAX_BLOCH_ENTRIES",
              "MIN_POSITIVE_COUPLINGS", "boundary_layers"}
    assert not _read_names(TREES["cli"]) & limits
    assert "DENSE_EIG_BUDGET" not in _read_names(TREES["hardy"])


def test_metric_list_and_default_shift_written_once():
    def metric_list(node):
        return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and \
            {"euclidean", "graph"} <= {getattr(e, "value", None) for e in node.elts}

    def default_shift(node):  # -2N
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
            and ast.unparse(node.left) in ("-2", "-2.0")

    assert _owners(metric_list) == {"hardy.HardyWeight.__post_init__"}
    assert _owners(default_shift) == {"spectral.checkerboard_shift"}


# exported names with no caller in src/, demos/ or benchmarks/, kept on purpose
LIBRARY_ONLY = {
    "read_field": "reads back the field files that write_field writes",
    "delta_field": "the point-mass input field of the discrete calculus",
    "GRAPH_WEIGHT": "the graph-metric weight; the CLI builds it from hardy.metric",
    "ZeroNonlinearity": "the model f = 0 of the linear problem; the validator refuses it",
    "CustomNonlinearity": "a model from user callables; the CLI builds only the power model",
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


def test_site_terms_never_compares_the_coupling():
    def names_rho(node):
        return any(isinstance(part, ast.Name) and part.id == "rho"
                   or isinstance(part, ast.Attribute) and part.attr == "rho"
                   for part in ast.walk(node))

    site_terms = next(node for node in TREES["energy"].body
                      if isinstance(node, ast.ClassDef) and node.name == "SiteTerms")
    found = [(method.name, ast.unparse(node))
             for method in site_terms.body if isinstance(method, ast.FunctionDef)
             for node in ast.walk(method)
             if isinstance(node, ast.Compare) and names_rho(node)]
    assert not found, found


def test_site_terms_built_only_by_the_solve():
    assert _owners(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == "SiteTerms") \
        == {"solver.solve_ground_state"}


def test_solver_takes_only_the_weight_from_hardy():
    names = {alias.name for node in TREES["solver"].body
             if isinstance(node, ast.ImportFrom) and node.module == "hardy"
             for alias in node.names}
    assert names == {"EUCLIDEAN_WEIGHT"}


def test_no_function_takes_both_constants_and_weight():
    # the constants carry their Hardy weight, so a second one could only
    # disagree with it
    both = [node.name for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and {"constants", "weight"} <= {
                arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                    *node.args.kwonlyargs)}]
    assert not both, both


def test_coupling_range_checked_through_its_owner():
    def checks(node):
        return isinstance(node, ast.Call) and any(
            getattr(part, "id", None) == "check_coupling"
            for part in (node.func, *node.args))

    assert _owners(checks) == {"energy.SiteTerms.__init__", "hardy.weighted_mass",
                               "continuation.SweepPlan.__post_init__",
                               "cli.parse_config"}


@pytest.mark.parametrize("field", ["residual_along_u", "residual_along_minus"])
def test_residual_fields_named_once(field):
    def names(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and field in node.value

    assert _owners(names) == {"energy.NehariResidual.to_dict"}


def test_residuals_judged_only_by_the_polish():
    def judges(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(part, ast.Attribute) and part.attr in ("along_u", "along_minus")
            for part in ast.walk(node))

    assert _owners(judges) == {"solver.polish_newton"}
    solve = next(node for node in TREES["solver"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve_ground_state")
    read = sorted({node.attr for node in ast.walk(solve) if isinstance(node, ast.Attribute)}
                  & {"along_u", "along_minus"})
    assert not read, f"solve_ground_state reads {read}"


def test_nonlinearity_numbers_are_the_sample_grid():
    def number(value):
        if isinstance(value, ast.UnaryOp):
            value = value.operand
        return isinstance(value, ast.Constant) and isinstance(value.value, (int, float)) \
            and not isinstance(value.value, bool)

    names = {target.id for node in TREES["nonlinearity"].body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
             and number(node.value)
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    assert names == {"U_MAX", "N_POINTS"}


# a precision of 15 or more digits in a format spec (".17g", "{:.16e}",
# "%.17g"): the round-trip formats, which only `jsonio.real` may use
ROUND_TRIP_SPEC = re.compile(r"\.(1[5-9]|[2-9][0-9])[eEfFgG%]")


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"jsonio"}))
def test_only_jsonio_formats_reals(module):
    specs = [f"line {node.lineno}: {node.value!r}" for node in ast.walk(TREES[module])
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and ROUND_TRIP_SPEC.search(node.value)]
    assert not specs, f"{module}.py formats reals itself: {specs}"


def test_jsonio_real_owns_the_round_trip_format():
    assert _owners(lambda node: isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   and ROUND_TRIP_SPEC.search(node.value)) == {"jsonio.real"}
