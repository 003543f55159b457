"""Coupling sweep: solve the ground state along a descending list of Hardy
couplings ending at 0, then compare levels and fields against the rho = 0
baseline.

Two theorem-backed facts are checked downstream: the baseline level
dominates (c_0 >= c_rho for admissible rho > 0), and levels and ground
states converge to the baseline as rho -> 0+.  The paper's convergence
holds up to translations of Z^N; no translation is a symmetry of a
Dirichlet box, so the fields are compared as they are.  The superquadratic
density G(u) = 1/2 f(u) u - F(u) ties the level to the solution: at a
critical point J_rho(u) = sum_x G(u(x)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import NehariResidual
from .errors import ConvergenceError, InvalidInputError, NumericalError
from .hardy import check_coupling
from .lattice import LatticeField
from .nonlinearity import Nonlinearity
from .solver import SolverConfig, solve_ground_state
from .spectral import SpectralSplit, coords_inner, split_norm


# Decision thresholds of `convergence_report`, written to report.json as is.
REPORT_THRESHOLDS = {"gap_floor": 1e-12, "slope_flag": 0.5,
                     "final_gap_frac": 0.02, "final_dist_frac": 0.05,
                     "ordering_tol": 1e-8}
# the least number of positive couplings `convergence_report` fits against
MIN_POSITIVE_COUPLINGS = 3


def check_report_couplings(rho_values) -> None:
    """Refuse fewer positive couplings than `convergence_report` fits."""
    positive = sum(r > 0 for r in rho_values)
    if positive < MIN_POSITIVE_COUPLINGS:
        raise InvalidInputError(
            f"the convergence report needs at least {MIN_POSITIVE_COUPLINGS} "
            f"positive couplings, got {positive}")


def superquadratic_mass(model: Nonlinearity, u: LatticeField) -> float:
    """sum_x G(u(x)) with G = 1/2 f u - F; equals J_rho(u) - 1/2 <J'(u), u>."""
    vals = u.values
    return float(np.sum(0.5 * model.f(vals) * vals - model.F(vals)))


@dataclass(frozen=True)
class SweepPlan:
    """Descending coupling list ending at 0."""

    rho_values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(r) for r in self.rho_values)
        if len(values) < 1:
            raise InvalidInputError("sweep plan needs at least one coupling")
        for r in values:
            check_coupling(r)
        if values[-1] != 0.0:
            raise InvalidInputError("sweep plan must end at rho = 0")
        if any(a <= b for a, b in zip(values, values[1:])):
            raise InvalidInputError("couplings must be strictly descending")
        object.__setattr__(self, "rho_values", values)


@dataclass
class SweepRecord:
    """One solved coupling: level, Nehari-Pankov residuals and baseline
    distance."""

    rho: float
    c_rho: float
    residual: NehariResidual
    sum_G: float
    u_norm: float                  # equivalent norm of the solution
    d_to_baseline: float = np.nan  # equivalent-norm distance to the baseline
    d_l2: float = np.nan
    field: LatticeField | None = None

    def to_dict(self) -> dict:
        return {"rho": self.rho, "c_rho": self.c_rho, **self.residual.to_dict(),
                "sum_G": self.sum_G, "u_norm": self.u_norm,
                "d_to_baseline": self.d_to_baseline, "d_l2": self.d_l2}


def sweep_rho(plan: SweepPlan, split: SpectralSplit, model: Nonlinearity,
              config: SolverConfig | None = None,
              constants=None) -> list[SweepRecord]:
    """Solve along the plan, warm-starting each coupling from the previous one.

    Every solve takes `constants` and so their Hardy weight.  The final
    (rho = 0) record is the baseline; distances to it are filled in a
    second pass once it is known.  A numerical failure aborts the sweep
    as a ConvergenceError with the partial records attached; any other
    error propagates as is: a hypothesis violation (a coupling beyond the
    admissible bound, say) and an input error (`constants` of another box,
    a box no wider than the boundary layers), which the first solve
    refuses before any work.
    """
    config = config or SolverConfig()
    records: list[SweepRecord] = []
    warm = None
    for rho in plan.rho_values:
        try:
            result = solve_ground_state(
                split, model, rho, config, constants=constants, warm_start=warm)
        except NumericalError as exc:
            err = ConvergenceError(f"sweep aborted at rho = {rho}: {exc}")
            err.partial_records = records
            raise err from exc
        state = result.u  # the polish's `StateRecord`, with u's eigencoordinates
        records.append(SweepRecord(
            rho=rho, c_rho=result.c_rho, residual=result.residual,
            sum_G=superquadratic_mass(model, state),
            u_norm=float(np.sqrt(coords_inner(split, state.coords, state.coords))),
            field=LatticeField(split.box, state.values)))
        # the next solve starts from the field alone, so the record's arrays
        # and terms are not held through it
        warm = records[-1].field
        del result, state
    baseline = records[-1]
    for rec in records:
        diff = LatticeField(split.box, rec.field.values - baseline.field.values)
        rec.d_to_baseline = split_norm(split, diff)
        rec.d_l2 = float(np.linalg.norm(diff.values))
    return records


def convergence_report(records: list[SweepRecord], baseline: SweepRecord) -> dict:
    """Tabulate the sweep against the baseline and fit the level-gap decay.

    Thresholds come from REPORT_THRESHOLDS.  The least-squares slope of
    log|c_rho - c_0| against log rho is reported (not asserted); slopes below
    slope_flag = 0.5 are flipped to suspicious.  Gaps at or below gap_floor =
    1e-12 are excluded from the fit; if fewer than two points survive the
    slope is "indeterminate".  Levels and gap increments are compared up to
    ordering_tol = 1e-8; the last positive coupling must come within
    final_gap_frac = 0.02 of c_0 and final_dist_frac = 0.05 of ||u_0||.
    """
    th = REPORT_THRESHOLDS
    check_report_couplings([r.rho for r in records])
    positive = sorted((r for r in records if r.rho > 0), key=lambda r: -r.rho)
    if baseline.rho != 0.0:
        raise InvalidInputError("baseline record must have rho = 0")
    c0 = baseline.c_rho
    gaps = [abs(r.c_rho - c0) for r in positive]
    usable = [(np.log(r.rho), np.log(g))
              for r, g in zip(positive, gaps) if g > th["gap_floor"]]
    if len(usable) >= 2:
        xs, ys = np.array([p[0] for p in usable]), np.array([p[1] for p in usable])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slope_out: float | str = slope
        suspicious = slope < th["slope_flag"]
    else:
        slope_out = "indeterminate"
        suspicious = False
    ordering_ok = all(r.c_rho <= c0 + th["ordering_tol"] for r in positive)
    diffs = np.diff(gaps)
    gaps_non_increasing = bool(np.all(diffs <= th["ordering_tol"]))
    final_gap_ok = gaps[-1] <= th["final_gap_frac"] * c0
    final_dist_ok = positive[-1].d_to_baseline <= th["final_dist_frac"] * baseline.u_norm
    return {
        "c0": c0,
        "records": [r.to_dict() for r in positive] + [baseline.to_dict()],
        "slope": slope_out,
        "usable_fit_points": len(usable),
        "flags": {
            "level_ordering_ok": ordering_ok,
            "gaps_non_increasing": gaps_non_increasing,
            "final_gap_ok": bool(final_gap_ok),
            "final_distance_ok": bool(final_dist_ok),
            "slope_suspicious": bool(suspicious),
        },
        "thresholds": dict(REPORT_THRESHOLDS),
    }
