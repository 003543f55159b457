"""Configuration-driven command line front end.

Subcommands: certify-gap, constants, solve, sweep, validate.  Configuration
is a flat UTF-8 key-value file with dotted sections ("solver.multistart =
5"); unknown keys are rejected so typos cannot silently change an
experiment.  `parse_config` checks every setting before any command runs:
it builds the box, the potential, the model, the Hardy weight and the
solver settings once, and each refuses its own bad values.  So do the
owners of the limits: `solver.check_boundary_layers` and
`spectral.check_dense_budget` (box.radius), `spectral.check_bloch_grid`
(bloch.grid), and for the commands that need them
`hardy.check_hardy_dimension` and `continuation.check_report_couplings`.
Each refusal exits 2 naming the key; the CLI restates none of their rules.
All outputs are plain files whose reals `jsonio.real` prints (17 digits);
a fixed seed reproduces them byte for byte, whatever the BLAS thread count:
`main` runs every command with both bundled OpenBLAS libraries (numpy's
and scipy's) on one thread.  Every artifact is written to
a temporary file and renamed into place; a failed write exits 2.

The splitting of the box operator is computed once per output directory:
certify-gap (or the first stage that certifies inline, which then loads
split.npy back like every later stage) writes each parity sector's
eigenpairs to split.npy as they are computed (`spectral.write_split`),
hashing the bytes as it writes them, and `_split_record` (layout and
SHA-256) to gap.json.  Later stages reuse gap.json and constants.json by
one rule: the file holds a JSON object written for this configuration
(potential, box radius and Bloch grid; fingerprint, N, R and Hardy
metric), each value of the configured type, and finite reals, from which
the split (with the split.npy of the record) or the constants build.
Anything else asks for the stage that wrote the file to be re-run.

Neither set-up stage holds the whole split, only one parity sector of it
at a time.  Every stage that loads split.npy reads its sectors through a
`spectral.SectorStream` (a `SpectralSplit` for solve and sweep) inside the
loader of gap.json, so that a record that cannot be read or a sector that
fails its checks, both an InvalidInputError, asks for certify-gap.
constants solves the kappa pencil, streams the sectors through their
checks and the rho_plus reduction, and writes the witnesses and
constants.json.  A re-run next to a matching constants.json streams the
same checks without the pencils.

Exit status: 0 on success, 2 when the configured problem violates a
structural hypothesis (no spectral gap at 0, coupling out of range, model
hypothesis failure, stale certification) or the configuration is invalid,
1 on numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy
import scipy

from . import jsonio
from .continuation import (SweepPlan, check_report_couplings, convergence_report,
                           sweep_rho)
from .errors import (CertificationMissingError, ConfigError, HypothesisError,
                     InvalidInputError, LatticeGapError)
from .hardy import (HardyWeight, InequalityConstants, best_hardy_constant,
                    check_coupling, check_hardy_dimension, rho_plus)
from .jsonio import atomic_open
from .lattice import BoxDomain, write_field
from .nonlinearity import PowerNonlinearity, validate_hypotheses
from .solver import SolverConfig, check_boundary_layers, solve_ground_state
from .spectral import (SPLIT_LAYOUT, PeriodicPotential, SectorStream,
                       assemble_operator, bloch_band_edges, check_bloch_grid,
                       check_dense_budget, checkerboard_potential,
                       checkerboard_shift, gap_intrusions, read_eigenpairs,
                       spectral_split, write_split)

SPLIT_FILE = "split.npy"


@dataclass
class RunConfig:
    """A parsed configuration: the library objects built from it, each of
    which checks its own rules, what the artifacts record of the potential,
    and the settings that only the CLI reads."""

    box: BoxDomain
    potential: PeriodicPotential
    potential_fingerprint: dict
    model: PowerNonlinearity
    weight: HardyWeight
    solver: SolverConfig
    rho_mode: str
    rho_values: tuple[float, ...]
    bloch_grid: int
    out_dir: str


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(_finite_float(tok) for tok in raw.replace(",", " ").split())


# config key -> (caster, default); the seed and the solver.* keys name
# SolverConfig fields and default to them
_KEYS = {
    "dimension": (int, 3),
    "box.radius": (int, 4),
    "potential.kind": (str, "checkerboard"),
    "potential.amplitude": (_finite_float, 1.0),
    "potential.shift": (_finite_float, None),
    "nonlinearity.kind": (str, "power"),
    "nonlinearity.p": (_finite_float, 4.0),
    "hardy.metric": (str, "euclidean"),
    "rho.mode": (str, "fraction"),
    "rho.values": (_parse_float_list, (0.0,)),
    "bloch.grid": (int, 8),
    "seed": (int, None),
    "output.dir": (str, "out"),
    "solver.multistart": (int, None),
    "solver.max_boundary_mass": (_finite_float, None),
}


def _built(key: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, with the InvalidInputError by which the
    library refuses a setting turned into a ConfigError naming `key`."""
    try:
        return build(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def parse_config(path) -> RunConfig:
    """Strict parse of a flat "key = value" file; unknown keys are errors.
    The box and its site budget are checked before the potential, whose
    cell has 2^N entries, is built."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _KEYS[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc

    def setting(key):
        return values.get(key, _KEYS[key][1])

    for key, known in (("potential.kind", "checkerboard"),
                       ("nonlinearity.kind", "power")):
        if setting(key) != known:
            raise ConfigError(f"unknown {key} {setting(key)!r}")
    radius = setting("box.radius")
    _built("box.radius", check_boundary_layers, radius)
    box = _built("dimension", BoxDomain, setting("dimension"), radius)
    _built("box.radius", check_dense_budget, "the box", box.site_count)
    fingerprint = {"kind": setting("potential.kind"),
                   "amplitude": setting("potential.amplitude"),
                   "shift": checkerboard_shift(box.dimension, setting("potential.shift")),
                   "dimension": box.dimension}
    potential = _built("potential", checkerboard_potential, box.dimension,
                       fingerprint["amplitude"], fingerprint["shift"])
    grid = setting("bloch.grid")
    _built("bloch.grid", check_bloch_grid, potential, grid)
    rho_mode, rho_values = setting("rho.mode"), setting("rho.values")
    if rho_mode not in ("fraction", "absolute"):
        raise ConfigError(f"rho.mode must be fraction or absolute, got {rho_mode!r}")
    if not rho_values:
        raise ConfigError("rho.values must be a non-empty list of couplings")
    for rho in rho_values:
        _built("rho.values", check_coupling, rho)
    return RunConfig(
        box=box, potential=potential, potential_fingerprint=fingerprint,
        model=_built("nonlinearity.p", PowerNonlinearity, setting("nonlinearity.p")),
        weight=_built("hardy.metric", HardyWeight, setting("hardy.metric")),
        solver=_built("solver settings", SolverConfig, **{
            key.removeprefix("solver."): value for key, value in values.items()
            if key == "seed" or key.startswith("solver.")}),
        rho_mode=rho_mode,
        # -0 passes the check above; written as is it would read "rho": -0
        rho_values=tuple(0.0 if r == 0 else r for r in rho_values),
        bloch_grid=grid, out_dir=setting("output.dir"))


def _split_record(sha256: str) -> dict:
    """What gap.json records of split.npy: name, layout and SHA-256."""
    return {"file": SPLIT_FILE, "layout": SPLIT_LAYOUT, "sha256": sha256}


def _gap_written_for(cfg: RunConfig) -> dict:
    return {"potential": cfg.potential_fingerprint, "box_radius": cfg.box.radius,
            "grid": cfg.bloch_grid}


def _constants_written_for(cfg: RunConfig) -> dict:
    metric = cfg.weight.metric
    return {"fingerprint": {"potential": cfg.potential_fingerprint,
                            "R": cfg.box.radius, "metric": metric},
            "N": cfg.box.dimension, "R": cfg.box.radius, "metric": metric}


def _certify(cfg: RunConfig, out: Path, write_bands: bool) -> None:
    """Certify the gap, write split.npy one sector at a time and then
    gap.json, which holds split.npy's hash (and bands.csv for certify-gap)."""
    table = bloch_band_edges(cfg.potential, grid=cfg.bloch_grid)
    operator = assemble_operator(cfg.box, cfg.potential)
    eigenvalues, sha256 = write_split(cfg.box, operator, out / SPLIT_FILE)
    if write_bands:
        table.to_csv(out / "bands.csv")
    payload = {**_gap_written_for(cfg),
               "sigma_minus": table.sigma_minus, "sigma_plus": table.sigma_plus,
               "intrusions": gap_intrusions(eigenvalues, table.gap),
               "smallest_abs_eigenvalue": float(abs(eigenvalues).min()),
               "eigenpairs": _split_record(sha256)}
    jsonio.dump(payload, out / "gap.json")


def _load_artifact(path: Path, rerun: str, written_for: dict,
                   reals: tuple[str, ...], build):
    """`build(data)` of the JSON object in `path`, which must hold the values
    of `written_for`, each of the configured value's type, and finite
    numbers under `reals`.  A file that fails any of these, or whose data
    `build` refuses with InvalidInputError, asks for `rerun`."""
    def refused(problem):
        return CertificationMissingError(f"{path.name} {problem}; re-run {rerun}")

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise refused(f"is unreadable ({exc})") from exc
    if not isinstance(data, dict):
        raise refused("does not hold a JSON object")
    missing = [key for key in (*written_for, *reals) if key not in data]
    if missing:
        raise refused(f"lacks {', '.join(missing)}")
    other = [key for key, value in written_for.items() if data[key] != value]
    if other:
        raise refused(f"was written for another {', '.join(other)}")
    # type(), not isinstance(): bools are neither integers nor reals
    wrong = [key for key, value in written_for.items()
             if type(data[key]) is not type(value)]
    wrong += [key for key in reals if type(data[key]) not in (int, float)
              or not math.isfinite(data[key])]
    if wrong:
        raise refused(f"holds a wrongly typed {', '.join(wrong)}")
    try:
        return build(data)
    except InvalidInputError as exc:
        raise refused(f"is inconsistent ({exc})") from exc


def _load_split_file(out: Path, recorded):
    """The sector eigenpairs of split.npy, once its layout and hash match
    `recorded`, the record in gap.json.  They are read lazily, inside the
    loader of gap.json, which asks for certify-gap when a record cannot be
    read."""
    path = out / SPLIT_FILE
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise CertificationMissingError(
            f"unreadable {SPLIT_FILE} ({exc}); re-run certify-gap") from exc
    if recorded != _split_record(digest.hexdigest()):
        raise CertificationMissingError(
            f"{SPLIT_FILE} does not match gap.json; re-run certify-gap")
    return read_eigenpairs(path)


def _read_split(cfg: RunConfig, out: Path, use):
    """`use(gap, operator, eigenpairs)` of the gap in gap.json, the box
    operator and split.npy's sector eigenpairs; without gap.json,
    certify-gap runs inline first.  `use` runs inside the loader of
    gap.json, so sectors that fail their checks when `use` reads them ask
    for certify-gap too."""
    path = out / "gap.json"
    if not path.exists():
        _certify(cfg, out, write_bands=False)

    def build(data):
        eigenpairs = _load_split_file(out, data.get("eigenpairs"))
        operator = assemble_operator(cfg.box, cfg.potential)
        return use((data["sigma_minus"], data["sigma_plus"]), operator, eigenpairs)

    return _load_artifact(path, "certify-gap", _gap_written_for(cfg),
                          ("sigma_minus", "sigma_plus"), build)


def _ensure_split(cfg: RunConfig, out: Path):
    """The split of gap.json and split.npy, certified inline if need be."""
    return _read_split(cfg, out, lambda gap, operator, eigenpairs: spectral_split(
        cfg.box, operator, gap, eigenpairs))


def _load_constants(cfg: RunConfig, out: Path) -> InequalityConstants:
    """The constants of constants.json, rebuilt from kappa and rho_plus; the
    recorded bounds derived from them must be the rebuilt ones."""
    def build(data):
        constants = InequalityConstants(
            dimension=data["N"], radius=data["R"], kappa=data["kappa"],
            rho_plus=data["rho_plus"], weight=cfg.weight)
        if any(data[key] != value for key, value in constants.to_dict().items()):
            raise InvalidInputError("recorded bounds differ from the derived ones")
        return constants

    return _load_artifact(
        out / "constants.json", "constants", _constants_written_for(cfg),
        ("kappa", "rho_plus", "rho_tilde_plus", "rho_max"), build)


def _write_constants(cfg: RunConfig, out: Path, split) -> InequalityConstants:
    """Solve the kappa pencil, then `rho_plus(split)`, and write the
    witnesses and constants.json."""
    hardy = best_hardy_constant(cfg.box, cfg.weight)
    rp = rho_plus(split)
    constants = InequalityConstants(
        dimension=cfg.box.dimension, radius=cfg.box.radius, kappa=hardy.kappa,
        rho_plus=rp.value, weight=cfg.weight)
    write_field(hardy.witness, out / "kappa_witness.field")
    write_field(rp.witness, out / "rho_plus_witness.field")
    payload = {**constants.to_dict(), **_constants_written_for(cfg),
               "witnesses": {"kappa": "kappa_witness.field",
                             "rho_plus": "rho_plus_witness.field"}}
    jsonio.dump(payload, out / "constants.json")
    return constants


def _resolve_rhos(cfg: RunConfig, out: Path, split):
    """(couplings, constants).  Any positive coupling needs rho_max, both
    for fraction resolution and for the admissibility check."""
    if not any(r > 0 for r in cfg.rho_values):
        return cfg.rho_values, None
    if (out / "constants.json").exists():
        constants = _load_constants(cfg, out)
    else:
        constants = _write_constants(cfg, out, split)
    if cfg.rho_mode == "absolute":
        return cfg.rho_values, constants
    return tuple(f * constants.rho_max for f in cfg.rho_values), constants


def cmd_certify_gap(cfg: RunConfig, out: Path) -> int:
    _certify(cfg, out, write_bands=True)
    return 0


def cmd_constants(cfg: RunConfig, out: Path) -> int:
    _built("dimension", check_hardy_dimension, cfg.box.dimension)
    reuse = (out / "constants.json").exists()

    def use(gap, operator, eigenpairs):
        sectors = SectorStream(cfg.box, operator, gap, eigenpairs)
        if not reuse:
            _write_constants(cfg, out, sectors)
        sectors.drain()

    _read_split(cfg, out, use)
    if reuse:
        _load_constants(cfg, out)
    return 0


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    report = validate_hypotheses(cfg.model)
    jsonio.dump(report.to_dict(), out / "hypothesis_report.json")
    return 0


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    _built("dimension", check_hardy_dimension, cfg.box.dimension)
    if len(cfg.rho_values) != 1:
        raise ConfigError("solve needs exactly one rho value")
    split = _ensure_split(cfg, out)
    (rho,), constants = _resolve_rhos(cfg, out, split)
    result = solve_ground_state(split, cfg.model, rho, cfg.solver,
                                constants=constants)
    write_field(result.u, out / "solution.field")
    with atomic_open(out / "run_log.jsonl") as fh:
        fh.writelines(jsonio.record(record) + "\n" for record in result.trace)
    jsonio.dump({
        "rho": rho, "c_rho": result.c_rho, **result.residual.to_dict(),
        "outer_iterations": result.outer_iterations,
        "polish_iterations": result.polish_iterations,
        "start_index": result.start_index}, out / "solve_summary.json")
    return 0


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    _built("dimension", check_hardy_dimension, cfg.box.dimension)
    # fractions of rho_max > 0 keep the order, the sign and the trailing 0,
    # so the configured list passes exactly when the resolved one does
    _built("rho.values for sweep", SweepPlan, rho_values=cfg.rho_values)
    _built("rho.values for sweep", check_report_couplings, cfg.rho_values)
    split = _ensure_split(cfg, out)
    rhos, constants = _resolve_rhos(cfg, out, split)
    plan = SweepPlan(rho_values=rhos)
    records = sweep_rho(plan, split, cfg.model, cfg.solver, constants=constants)
    with atomic_open(out / "sweep.csv", newline="") as fh:
        fh.write("rho,c_rho,residual,d_to_baseline,sum_G\n")
        fh.writelines(",".join(map(jsonio.real, (
            r.rho, r.c_rho, r.residual.full, r.d_to_baseline, r.sum_G))) + "\n"
            for r in records)
    write_field(records[-1].field, out / "baseline.field")
    report = convergence_report(records[:-1], records[-1])
    jsonio.dump(report, out / "report.json")
    return 0


# numpy and scipy each bundle an OpenBLAS, whose dense products sum in an
# order that depends on its thread count: (package, library file pattern,
# its thread-count functions with %s for get or set)
_OPENBLAS = ((numpy, "libscipy_openblas64_-*.so", "scipy_openblas_%s_num_threads64_"),
             (scipy, "libscipy_openblas-*.so", "scipy_openblas_%s_num_threads"))


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with each library of `_OPENBLAS` on one thread, and
    restore its thread count after.  A library or symbol not found (another
    BLAS build) is named in one line on stderr, and the run goes on."""
    restore, missing = [], []
    for package, pattern, symbol in _OPENBLAS:
        folder = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        try:
            lib = ctypes.CDLL(str(sorted(folder.glob(pattern))[0]))
            get, put = getattr(lib, symbol % "get"), getattr(lib, symbol % "set")
        except (IndexError, OSError, AttributeError):
            missing.append(package.__name__)
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        restore.append((put, get()))
        put(1)
    if missing:
        print(f"warning: the OpenBLAS of {' and '.join(missing)} was not found; "
              "results may depend on the BLAS thread count", file=sys.stderr)
    try:
        yield
    finally:
        for put, count in restore:
            put(count)


_COMMANDS = {
    "certify-gap": cmd_certify_gap,
    "constants": cmd_constants,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticegap",
        description="Ground states of gapped discrete Schrodinger equations "
                    "with Hardy weights")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: every command runs its "
                             "BLAS on one thread; kept because the benchmark "
                             "passes it")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        if args.seed is not None:
            cfg.solver = _built("--seed", replace, cfg.solver, seed=args.seed)
        out = Path(args.out if args.out is not None else cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        with _one_blas_thread():
            return _COMMANDS[args.command](cfg, out)
    except (ConfigError, HypothesisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
