"""Configuration-driven command line front end.

Subcommands: certify-gap, constants, solve, sweep, validate.  Configuration
is a flat UTF-8 key-value file with dotted sections ("solver.multistart =
5"); unknown keys are rejected so typos cannot silently change an
experiment.  All outputs are plain files with floats printed at 17
significant digits; a fixed seed reproduces them byte for byte.  Every
artifact is written to a temporary file and renamed into place.

The splitting of the box operator is computed once per output directory:
certify-gap (or the first stage that certifies inline) writes the
eigenpairs of each parity sector to split.npy and records the file's
layout and SHA-256 in gap.json, and later stages load the file instead of
decomposing again.  A gap.json or split.npy that does not match the
configuration, or each other, is stale and asks for certify-gap to be
re-run.

Exit status: 0 on success, 2 when the configured problem violates a
structural hypothesis (no spectral gap at 0, coupling out of range, model
hypothesis failure, stale certification) or the configuration is invalid,
1 on numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path


from . import jsonio
from .continuation import (MIN_POSITIVE_COUPLINGS, SweepPlan, SweepRecord,
                           convergence_report, sweep_rho)
from .errors import (CertificationMissingError, ConfigError, HypothesisError,
                     InvalidInputError, LatticeGapError)
from .hardy import (HardyWeight, InequalityConstants, best_hardy_constant,
                    rho_plus)
from .jsonio import atomic_open
from .lattice import MAX_DIMENSION, BoxDomain, write_field
from .nonlinearity import PowerNonlinearity, validate_hypotheses
from .solver import SolverConfig, solve_ground_state
from .spectral import (DENSE_EIG_BUDGET, MAX_BLOCH_ENTRIES, MIN_BLOCH_GRID,
                       assemble_operator, bloch_band_edges, checkerboard_potential,
                       load_eigenpairs, save_eigenpairs, spectral_split)

SPLIT_FILE = "split.npy"
# the split.npy layout: per parity sector, eigenvalues then eigenvectors
SPLIT_LAYOUT = "parity-sectors"


@dataclass
class RunConfig:
    dimension: int = 3
    radius: int = 4
    potential_kind: str = "checkerboard"
    amplitude: float = 1.0
    potential_shift: float | None = None
    nonlinearity_kind: str = "power"
    p: float = 4.0
    hardy_metric: str = "euclidean"
    rho_mode: str = "fraction"
    rho_values: tuple[float, ...] = (0.0,)
    bloch_grid: int = 8
    out_dir: str = "out"
    solver: SolverConfig = None

    def potential(self):
        return checkerboard_potential(self.dimension, self.amplitude,
                                      self.potential_shift)

    def potential_fingerprint(self) -> dict:
        shift = self.potential_shift
        return {"kind": self.potential_kind, "amplitude": self.amplitude,
                "shift": float(-2.0 * self.dimension if shift is None else shift),
                "dimension": self.dimension}

    def box(self) -> BoxDomain:
        if self.radius < 2:
            raise ConfigError(f"box.radius must be >= 2, got {self.radius}")
        box = BoxDomain(self.dimension, self.radius)
        if box.site_count > DENSE_EIG_BUDGET:
            raise ConfigError(f"box has {box.site_count} sites, above the budget "
                              f"of {DENSE_EIG_BUDGET}")
        return box

    def model(self):
        return PowerNonlinearity(self.p)

    def weight(self) -> HardyWeight:
        return HardyWeight(self.hardy_metric)


def _parse_scalar(caster, key, raw):
    try:
        return caster(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(_finite_float(tok) for tok in raw.replace(",", " ").split())


# config key -> (attribute, caster); the seed and the solver.* keys are
# SolverConfig fields, the others RunConfig attributes
_KEYS = {
    "dimension": ("dimension", int),
    "box.radius": ("radius", int),
    "potential.kind": ("potential_kind", str),
    "potential.amplitude": ("amplitude", _finite_float),
    "potential.shift": ("potential_shift", _finite_float),
    "nonlinearity.kind": ("nonlinearity_kind", str),
    "nonlinearity.p": ("p", _finite_float),
    "hardy.metric": ("hardy_metric", str),
    "rho.mode": ("rho_mode", str),
    "rho.values": ("rho_values", _parse_float_list),
    "bloch.grid": ("bloch_grid", int),
    "seed": ("seed", int),
    "output.dir": ("out_dir", str),
    "solver.multistart": ("multistart", int),
    "solver.max_boundary_mass": ("max_boundary_mass", _finite_float),
}


def parse_config(path) -> RunConfig:
    """Strict parse of a flat "key = value" file; unknown keys are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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
        values[key] = _parse_scalar(_KEYS[key][1], key, raw)

    cfg = RunConfig()
    solver_kwargs = {}
    for key, value in values.items():
        attribute = _KEYS[key][0]
        if key == "seed" or key.startswith("solver."):
            solver_kwargs[attribute] = value
        else:
            setattr(cfg, attribute, value)

    if not 1 <= cfg.dimension <= MAX_DIMENSION:
        raise ConfigError(
            f"dimension must be in [1, {MAX_DIMENSION}], got {cfg.dimension}")
    if cfg.bloch_grid < MIN_BLOCH_GRID:
        raise ConfigError(
            f"bloch.grid must be >= {MIN_BLOCH_GRID}, got {cfg.bloch_grid}")
    if cfg.potential_kind != "checkerboard":
        raise ConfigError(f"unknown potential.kind {cfg.potential_kind!r}")
    if cfg.nonlinearity_kind != "power":
        raise ConfigError(f"unknown nonlinearity.kind {cfg.nonlinearity_kind!r}")
    if not cfg.p > 2:
        raise ConfigError(f"nonlinearity.p must be > 2, got {cfg.p}")
    if cfg.hardy_metric not in ("euclidean", "graph"):
        raise ConfigError(f"unknown hardy.metric {cfg.hardy_metric!r}")
    if cfg.rho_mode not in ("fraction", "absolute"):
        raise ConfigError(f"rho.mode must be fraction or absolute, got {cfg.rho_mode!r}")
    if not cfg.rho_values or min(cfg.rho_values) < 0:
        raise ConfigError(
            f"rho.values must be a non-empty list of couplings >= 0, "
            f"got {cfg.rho_values}")
    # -0 passes the check above; written as is it would read "rho": -0
    cfg.rho_values = tuple(0.0 if r == 0 else r for r in cfg.rho_values)

    try:
        cfg.solver = SolverConfig(**solver_kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc
    return cfg


def _hardy_commands_need_n3(cfg: RunConfig):
    if cfg.dimension < 3:
        raise ConfigError(
            f"Hardy-dependent commands require dimension >= 3, got {cfg.dimension}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _certify(cfg: RunConfig, out: Path, write_bands: bool):
    """Band table + box split; writes split.npy and then gap.json, which
    holds split.npy's hash (and bands.csv for certify-gap).  The box, with
    it the site budget, and the Bloch stack's size are checked before any
    Bloch work."""
    box = cfg.box()
    potential = cfg.potential()
    cell = potential.cell_size
    if cfg.bloch_grid ** cfg.dimension * cell ** 2 > MAX_BLOCH_ENTRIES:
        raise ConfigError(
            f"bloch.grid must be small enough for grid^N |cell|^2 <= "
            f"{MAX_BLOCH_ENTRIES}, got {cfg.bloch_grid}^{cfg.dimension} x {cell}^2")
    table = bloch_band_edges(potential, grid=cfg.bloch_grid)
    operator = assemble_operator(box, potential)
    split = spectral_split(box, operator, table.gap)
    if write_bands:
        table.to_csv(out / "bands.csv")
    save_eigenpairs(split, out / SPLIT_FILE)
    payload = {"potential": cfg.potential_fingerprint(),
               "box_radius": cfg.radius, "grid": cfg.bloch_grid,
               "sigma_minus": table.sigma_minus, "sigma_plus": table.sigma_plus,
               "intrusions": split.intrusions,
               "smallest_abs_eigenvalue": split.smallest_abs_eigenvalue,
               "eigenpairs": {"file": SPLIT_FILE, "layout": SPLIT_LAYOUT,
                              "sha256": _sha256(out / SPLIT_FILE)}}
    jsonio.dump(payload, out / "gap.json")
    return table, split


def _read_artifact(path: Path, keys: tuple[str, ...], rerun: str) -> dict:
    """Load a JSON artifact holding `keys`; anything else asks for a re-run."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CertificationMissingError(
            f"unreadable {path.name} ({exc}); re-run {rerun}") from exc
    if not isinstance(data, dict):
        raise CertificationMissingError(
            f"{path.name} does not hold a JSON object; re-run {rerun}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise CertificationMissingError(
            f"{path.name} lacks {', '.join(missing)}; re-run {rerun}")
    return data


def _check_types(data: dict, ints: tuple[str, ...], reals: tuple[str, ...],
                 name: str, rerun: str) -> None:
    """Integers must be ints and reals finite numbers; bools are neither."""
    def number(value, kinds):
        return isinstance(value, kinds) and not isinstance(value, bool)

    wrong = [key for key in ints if not number(data[key], int)]
    wrong += [key for key in reals
              if not (number(data[key], (int, float)) and math.isfinite(data[key]))]
    if wrong:
        raise CertificationMissingError(
            f"{name} holds a wrongly typed {', '.join(wrong)}; re-run {rerun}")


def _load_split_file(out: Path, recorded):
    """Sector eigenpairs from split.npy, once its layout and hash match the
    record in gap.json."""
    path = out / SPLIT_FILE
    try:
        digest = _sha256(path)
    except OSError as exc:
        raise CertificationMissingError(
            f"cannot read {SPLIT_FILE} ({exc}); re-run certify-gap") from exc
    if recorded != {"file": SPLIT_FILE, "layout": SPLIT_LAYOUT, "sha256": digest}:
        raise CertificationMissingError(
            f"{SPLIT_FILE} does not match gap.json; re-run certify-gap")
    try:
        return load_eigenpairs(path)
    except (OSError, EOFError, ValueError) as exc:
        raise CertificationMissingError(
            f"unreadable {SPLIT_FILE} ({exc}); re-run certify-gap") from exc


def _ensure_split(cfg: RunConfig, out: Path):
    """Reuse a matching gap.json and split.npy or certify inline; stale
    files are an error."""
    path = out / "gap.json"
    if path.exists():
        data = _read_artifact(path, ("sigma_minus", "sigma_plus", "eigenpairs"),
                              "certify-gap")
        if (data.get("potential") != cfg.potential_fingerprint()
                or data.get("box_radius") != cfg.radius
                or data.get("grid") != cfg.bloch_grid):
            raise CertificationMissingError(
                "gap.json does not match this configuration; re-run certify-gap")
        _check_types(data, (), ("sigma_minus", "sigma_plus"), "gap.json",
                     "certify-gap")
        if not data["sigma_minus"] < 0.0 < data["sigma_plus"]:
            raise CertificationMissingError(
                f"gap.json records the gap ({data['sigma_minus']!r}, "
                f"{data['sigma_plus']!r}), which does not contain 0; "
                "re-run certify-gap")
        box = cfg.box()
        eigenpairs = _load_split_file(out, data["eigenpairs"])
        operator = assemble_operator(box, cfg.potential())
        try:
            return spectral_split(box, operator,
                                  (data["sigma_minus"], data["sigma_plus"]),
                                  eigenpairs)
        except InvalidInputError as exc:
            raise CertificationMissingError(
                f"{SPLIT_FILE} does not fit this box ({exc}); "
                "re-run certify-gap") from exc
    _, split = _certify(cfg, out, write_bands=False)
    return split


def _ensure_constants(cfg: RunConfig, out: Path, split) -> InequalityConstants:
    path = out / "constants.json"
    fingerprint = {"potential": cfg.potential_fingerprint(), "R": cfg.radius,
                   "metric": cfg.hardy_metric}
    if path.exists():
        data = _read_artifact(
            path, ("fingerprint", "N", "R", "kappa", "rho_plus",
                   "rho_tilde_plus", "rho_max", "metric"), "constants")
        if data["fingerprint"] != json.loads(jsonio.dumps(fingerprint)):
            raise CertificationMissingError(
                "constants.json does not match this configuration; re-run constants")
        # the values beside the fingerprint must be the configuration's too
        stated = {"N": cfg.dimension, "R": cfg.radius, "metric": cfg.hardy_metric}
        wrong = [key for key, value in stated.items() if data[key] != value]
        if wrong:
            raise CertificationMissingError(
                f"constants.json {', '.join(wrong)} not this configuration's; "
                "re-run constants")
        _check_types(data, ("N", "R"),
                     ("kappa", "rho_plus", "rho_tilde_plus", "rho_max"),
                     "constants.json", "constants")
        try:
            return InequalityConstants(
                dimension=data["N"], radius=data["R"], kappa=data["kappa"],
                rho_plus=data["rho_plus"], rho_tilde_plus=data["rho_tilde_plus"],
                rho_max=data["rho_max"], metric=data["metric"])
        except InvalidInputError as exc:
            raise CertificationMissingError(
                f"inconsistent constants.json ({exc}); re-run constants") from exc
    return _compute_constants(cfg, out, split, fingerprint)


def _compute_constants(cfg, out, split, fingerprint) -> InequalityConstants:
    weight = cfg.weight()
    hardy = best_hardy_constant(split.box, weight)
    rp = rho_plus(split)
    constants = InequalityConstants(
        dimension=cfg.dimension, radius=cfg.radius, kappa=hardy.kappa,
        rho_plus=rp.value, metric=cfg.hardy_metric)
    write_field(hardy.witness, out / "kappa_witness.field")
    write_field(rp.witness, out / "rho_plus_witness.field")
    payload = constants.to_dict()
    payload["witnesses"] = {"kappa": "kappa_witness.field",
                            "rho_plus": "rho_plus_witness.field"}
    payload["fingerprint"] = fingerprint
    jsonio.dump(payload, out / "constants.json")
    return constants


def _resolve_rhos(cfg: RunConfig, out: Path, split):
    """(couplings, constants).  Any positive coupling needs rho_max, both
    for fraction resolution and for the admissibility check."""
    if not any(r > 0 for r in cfg.rho_values):
        return cfg.rho_values, None
    constants = _ensure_constants(cfg, out, split)
    if cfg.rho_mode == "absolute":
        return cfg.rho_values, constants
    return tuple(f * constants.rho_max for f in cfg.rho_values), constants


def cmd_certify_gap(cfg: RunConfig, out: Path) -> int:
    _certify(cfg, out, write_bands=True)
    return 0


def cmd_constants(cfg: RunConfig, out: Path) -> int:
    _hardy_commands_need_n3(cfg)
    split = _ensure_split(cfg, out)
    _ensure_constants(cfg, out, split)
    return 0


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    report = validate_hypotheses(cfg.model())
    jsonio.dump(report.to_dict(), out / "hypothesis_report.json")
    return 0


def _record_line(record: dict) -> str:
    parts = [f'"{k}": ' + (f"{v:.17g}" if isinstance(v, float) else str(v))
             for k, v in record.items()]
    return "{" + ", ".join(parts) + "}"


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    _hardy_commands_need_n3(cfg)
    if len(cfg.rho_values) != 1:
        raise ConfigError("solve needs exactly one rho value")
    split = _ensure_split(cfg, out)
    (rho,), constants = _resolve_rhos(cfg, out, split)
    result = solve_ground_state(split, cfg.model(), rho, cfg.solver,
                                weight=cfg.weight(), constants=constants)
    write_field(result.u, out / "solution.field")
    with atomic_open(out / "run_log.jsonl") as fh:
        for record in result.trace:
            fh.write(_record_line(record) + "\n")
    jsonio.dump({
        "rho": rho, "c_rho": result.c_rho,
        "residual_full": result.residual_full,
        "residual_along_u": result.residual_along_u,
        "residual_along_minus": result.residual_along_minus,
        "outer_iterations": result.outer_iterations,
        "polish_iterations": result.polish_iterations,
        "start_index": result.start_index}, out / "solve_summary.json")
    return 0


def _write_sweep_csv(records: list[SweepRecord], path) -> None:
    with atomic_open(path, newline="") as fh:
        fh.write("rho,c_rho,residual,d_to_baseline,sum_G\n")
        for r in records:
            fh.write(f"{r.rho:.17g},{r.c_rho:.17g},{r.residual_full:.17g},"
                     f"{r.d_to_baseline:.17g},{r.sum_G:.17g}\n")


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    _hardy_commands_need_n3(cfg)
    # fractions of rho_max > 0 keep the order and the trailing 0, so the
    # configured list passes exactly when the resolved one does
    try:
        SweepPlan(rho_values=cfg.rho_values)
    except InvalidInputError as exc:
        raise ConfigError(f"bad rho.values for sweep: {exc}") from exc
    positive = sum(r > 0 for r in cfg.rho_values)
    if positive < MIN_POSITIVE_COUPLINGS:
        raise ConfigError(
            f"bad rho.values for sweep: the convergence report needs at least "
            f"{MIN_POSITIVE_COUPLINGS} positive couplings, got {positive}")
    split = _ensure_split(cfg, out)
    rhos, constants = _resolve_rhos(cfg, out, split)
    plan = SweepPlan(rho_values=rhos)
    records = sweep_rho(plan, split, cfg.model(), cfg.solver,
                        weight=cfg.weight(), constants=constants)
    _write_sweep_csv(records, out / "sweep.csv")
    write_field(records[-1].field, out / "baseline.field")
    report = convergence_report(records[:-1], records[-1])
    jsonio.dump(report, out / "report.json")
    return 0


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
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        if args.seed is not None:
            try:
                cfg.solver = replace(cfg.solver, seed=args.seed)
            except InvalidInputError as exc:
                raise ConfigError(f"bad --seed: {exc}") from exc
        out = Path(args.out if args.out is not None else cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except (ConfigError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
