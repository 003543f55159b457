"""Ground-state computation by the reduced min-max.

For each unit direction w in X^+ the energy is maximized over the slab
R+ w (+) X^- (the inner problem); the resulting reduced value is then
minimized over the unit sphere of X^+ (the outer problem); a damped Newton
iteration on the full gradient polishes the incumbent to the final
residual.  The inner maximizer is not assumed unique: a sampled
perturbation certificate replaces the uniqueness assumption.

The outer problem and the certificates work in eigencoordinates of the
split, where the equivalent norm is diagonal (||u||^2 = sum |lambda_i| c_i^2)
and the positive/negative projections are the split's index slices
`minus` and `plus`.  The inner problem runs in slab coordinates (t, vm):
the scalar along w and the X^- eigencoordinates.  With E_+ w computed once
per inner solve, each of its evaluations touches only the split's X^-
block `minus_vectors`.
The site-space terms of J, J' and J'' come from `energy.SiteTerms`; this
module adds only the quadratic parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import SiteTerms, evaluate_energy, nehari_residual
from .errors import (ConvergenceError, DegenerateProblemError,
                     InvalidInputError, ModelHypothesisError,
                     PostConditionError, RhoOutOfRangeError,
                     SingularJacobianError)
from .hardy import EUCLIDEAN_WEIGHT, HardyWeight, compute_constants
from .lattice import LatticeField, recenter
from .nonlinearity import (CustomNonlinearity, Nonlinearity,
                           validate_hypotheses)
from .spectral import SpectralSplit


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, iteration caps and multistart policy."""

    inner_tol: float = 1e-10      # projected gradient norm of the inner problem
    outer_tol: float = 1e-5       # full gradient norm before polishing
    polish_tol: float = 1e-8      # final ||J'(u)||_2 <= polish_tol (1 + ||u||_2)
    polish_entry: float = 1e-2    # largest residual accepted by the polisher
    max_inner: int = 2000
    max_outer: int = 400
    max_polish: int = 60
    newton_switch: float = 1e-3   # inner residual at which Newton acceleration starts
    armijo: float = 1e-4
    backtrack_shrink: float = 0.5
    max_backtracks: int = 50
    multistart: int = 5
    seed: int = 0
    certify: bool = True
    certificate_samples: int = 200
    certificate_tol: float = 1e-6
    validate_model: bool = True
    t_cap: float = 1e6            # scalar growth beyond this flags a degenerate direction
    # Dirichlet walls support boundary-pinned critical points below the bulk
    # soliton level; a threshold on the squared-mass fraction in the outer
    # layers restricts the search to interior states (None = box-global).
    max_boundary_mass: float | None = None
    boundary_layers: int = 1

    def __post_init__(self):
        for name in ("inner_tol", "outer_tol", "polish_tol"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be > 0")
        if self.inner_tol > self.outer_tol:
            raise InvalidInputError("inner_tol must be <= outer_tol")
        if self.multistart < 1:
            raise InvalidInputError("multistart must be >= 1")
        if self.max_boundary_mass is not None and not 0.0 < self.max_boundary_mass <= 1.0:
            raise InvalidInputError("max_boundary_mass must be None or in (0, 1]")
        for name in ("backtrack_shrink", "armijo"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise InvalidInputError(f"{name} must be in (0, 1)")
        if self.boundary_layers < 1:
            raise InvalidInputError("boundary_layers must be >= 1")
        if self.certificate_samples < 0:
            raise InvalidInputError("certificate_samples must be >= 0")


@dataclass
class GroundStateResult:
    """Converged ground state with its level and exit diagnostics."""

    u: LatticeField
    c_rho: float
    residual_full: float
    residual_along_u: float
    residual_along_minus: float
    outer_iterations: int
    inner_iterations: int
    polish_iterations: int
    start_index: int
    recenter_shift: tuple[int, ...]
    trace: list[dict] = dataclass_field(default_factory=list)
    polish_residuals: list[float] = dataclass_field(default_factory=list)
    diagnostics: dict = dataclass_field(default_factory=dict)


class _Workspace:
    """The split, plus the site terms of J.

    `terms` (an `energy.SiteTerms`) supplies the site-space parts of J, J'
    and the Hessian diagonal; the eigencoordinate gradient here and the slab
    forms of `_Slab` add only their quadratic parts.
    """

    def __init__(self, split: SpectralSplit, model: Nonlinearity, rho: float,
                 weight: HardyWeight):
        self.split = split
        self.terms = SiteTerms(split, model, rho, weight)

    def grad(self, coords: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        if u is None:
            u = self.split.values_of(coords)
        return self.split.eigenvalues * coords - self.split.coords_of(self.terms.force(u))


def _embed(split: SpectralSplit, t: float, wp: np.ndarray, vm: np.ndarray) -> np.ndarray:
    """Eigencoordinates of the slab point (t, vm) over the X^+ direction wp."""
    coords = np.empty(split.size)
    coords[split.minus] = vm
    coords[split.plus] = t * wp
    return coords


class _Slab:
    """The slab R+ w (+) X^- in coordinates (t, vm).

    The point (t, vm) has eigencoordinates (vm, t wp) and site values
    t ew + E_- vm, with ew = E_+ wp precomputed, so an evaluation touches
    only the split's X^- block.
    """

    def __init__(self, ws: _Workspace, wp: np.ndarray):
        self.ws = ws
        self.split = ws.split
        self.wp = wp
        self.ew = self.split.plus_vectors @ wp
        self.qw = float(np.sum(self.split.plus_eigenvalues * wp ** 2))

    def site_values(self, t: float, vm: np.ndarray) -> np.ndarray:
        return t * self.ew + self.split.minus_vectors @ vm

    def value(self, t: float, vm: np.ndarray, u: np.ndarray) -> float:
        quad = t * t * self.qw + float(np.sum(self.split.minus_eigenvalues * vm ** 2))
        return 0.5 * quad - self.ws.terms.energy(u)

    def restrict(self, t: float, vm: np.ndarray, r: np.ndarray):
        """Slab components (along w, along X^-) of  Lambda c - E^T r  at c = (vm, t wp)."""
        return (t * self.qw - float(self.ew @ r),
                self.split.minus_eigenvalues * vm - self.split.minus_vectors.T @ r)

    def grad(self, t: float, vm: np.ndarray, u: np.ndarray):
        return self.restrict(t, vm, self.ws.terms.force(u))


def _metric_norm(abs_lam: np.ndarray, coords: np.ndarray) -> float:
    """Equivalent norm sqrt(sum |lambda_i| c_i^2) of eigencoordinates."""
    return float(np.sqrt(np.sum(abs_lam * coords ** 2)))


def _minus_perturbation(split: SpectralSplit, rng, radius: float) -> np.ndarray:
    """Random X^- coordinates with equivalent norm uniform in [0, radius)."""
    dv = rng.standard_normal(split.negative_count)
    norm = _metric_norm(split.abs_minus_eigenvalues, dv)
    if norm > 0:
        dv *= rng.uniform(0.0, radius) / norm
    return dv


def unit_plus_direction(split: SpectralSplit, seed_field: LatticeField) -> LatticeField:
    """Project a field onto X^+ and normalize it in the equivalent norm."""
    coords = split.to_coords(seed_field)
    coords[split.minus] = 0.0
    norm = _metric_norm(split.abs_eigenvalues, coords)
    if norm < 1e-14:
        raise InvalidInputError("field has no X^+ component to normalize")
    return split.from_coords(coords / norm)


def boundary_mass_fraction(box, values: np.ndarray, layers: int = 1) -> float:
    """Fraction of the squared mass sitting within `layers` of the box walls."""
    outer = np.max(np.abs(box.sites), axis=1) > box.radius - layers
    total = float(np.sum(values ** 2))
    return float(np.sum(values[outer] ** 2)) / total if total > 0 else 0.0


def _inner_residual(t, gt, gv):
    along_t = abs(gt) if t > 0.0 else max(gt, 0.0)
    return max(along_t, float(np.linalg.norm(gv)))


def _inner_core(slab: _Slab, t: float, vm: np.ndarray, cfg: SolverConfig):
    """Maximize value over (t >= 0, vm).  Returns (t, vm, value, res, iters, reason)."""
    u = slab.site_values(t, vm)
    val = slab.value(t, vm, u)
    gt, gv = slab.grad(t, vm, u)
    alpha = 1.0
    for it in range(cfg.max_inner):
        res = _inner_residual(t, gt, gv)
        if res <= cfg.inner_tol:
            return t, vm, val, res, it, None
        if t > cfg.t_cap or val > 1e12:
            return t, vm, val, res, it, "unbounded ascent: no superquadratic confinement"
        if t <= 1e-12 and gt <= 0.0 and np.linalg.norm(gv) <= cfg.inner_tol:
            return 0.0, vm, val, res, it, "t collapsed to zero: infeasible direction"

        stepped = False
        if res <= cfg.newton_switch:
            s = _inner_newton_step(slab, u, gt, gv, res)
            if s is not None:
                st, sv = s
                for k in range(cfg.max_backtracks):
                    damp = cfg.backtrack_shrink ** k
                    t_try = max(t + damp * st, 0.0)
                    vm_try = vm + damp * sv
                    u_try = slab.site_values(t_try, vm_try)
                    gt_try, gv_try = slab.grad(t_try, vm_try, u_try)
                    if _inner_residual(t_try, gt_try, gv_try) < res:
                        t, vm, u, gt, gv = t_try, vm_try, u_try, gt_try, gv_try
                        val = slab.value(t, vm, u)
                        stepped = True
                        break
        if not stepped:
            # metric-preconditioned ascent with Armijo backtracking
            dt = gt
            dv = gv / slab.split.abs_minus_eigenvalues
            for k in range(cfg.max_backtracks):
                t_try = max(t + alpha * dt, 0.0)
                vm_try = vm + alpha * dv
                pred = gt * (t_try - t) + float(gv @ (vm_try - vm))
                u_try = slab.site_values(t_try, vm_try)
                val_try = slab.value(t_try, vm_try, u_try)
                if val_try >= val + cfg.armijo * pred and pred >= 0.0:
                    t, vm, u, val = t_try, vm_try, u_try, val_try
                    gt, gv = slab.grad(t, vm, u)
                    alpha = min(alpha * 1.5, 4.0)
                    stepped = True
                    break
                alpha *= cfg.backtrack_shrink
            if not stepped:
                raise ConvergenceError(
                    f"inner maximization stalled at residual {res:.3e}")
    raise ConvergenceError(
        f"inner maximization exceeded {cfg.max_inner} iterations")


def _inner_newton_step(slab: _Slab, u, gt, gv, res):
    """Inexact Newton step on the reduced gradient via preconditioned CG.

    Solves (-H_red) s = r for r = (gt, gv); -H_red is positive definite near
    the maximizer for models with nonnegative df.  Returns None when CG hits
    non-positive curvature immediately.
    """
    d_site = slab.ws.terms.hess_diag(u)

    def neg_hess(svec):
        st, sv = float(svec[0]), svec[1:]
        ht, hv = slab.restrict(st, sv, d_site * slab.site_values(st, sv))
        out = np.empty(svec.size)
        out[0] = -ht
        out[1:] = -hv
        return out

    r = np.empty(1 + slab.split.negative_count)
    r[0] = gt
    r[1:] = gv
    precond = np.empty_like(r)
    precond[0] = 1.0
    precond[1:] = slab.split.abs_minus_eigenvalues
    s = np.zeros_like(r)
    resid = r.copy()
    z = resid / precond
    p = z.copy()
    rz = float(resid @ z)
    target = max(min(0.5, np.sqrt(res)) * np.linalg.norm(r), 1e-300)
    for _ in range(200):
        hp = neg_hess(p)
        curv = float(p @ hp)
        if curv <= 1e-14 * float(p @ p):
            break
        gamma = rz / curv
        s = s + gamma * p
        resid = resid - gamma * hp
        if np.linalg.norm(resid) <= target:
            break
        z = resid / precond
        rz_new = float(resid @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if float(s @ r) <= 0.0:
        return None
    return float(s[0]), s[1:]


@dataclass
class _StartResult:
    index: int
    status: str                 # "converged", "stalled", "degenerate", "failed"
    value: float = np.inf
    res_full: float = np.inf
    t: float = 0.0
    wp: np.ndarray | None = None
    vm: np.ndarray | None = None
    outer_iterations: int = 0
    inner_iterations: int = 0
    trace: list = dataclass_field(default_factory=list)
    reason: str | None = None


def _outer_single(ws: _Workspace, wp0: np.ndarray, cfg: SolverConfig,
                  index: int, warm=None) -> _StartResult:
    split = ws.split
    lam_pos = split.plus_eigenvalues
    wp = wp0.copy()
    out = _StartResult(index=index, status="failed")
    try:
        t, vm = warm if warm is not None else (1.0, np.zeros(split.negative_count))
        t, vm, val, _, its, reason = _inner_core(_Slab(ws, wp), t, vm, cfg)
        out.inner_iterations += its
    except ConvergenceError as exc:
        out.reason = str(exc)
        return out
    if reason is not None:
        out.status, out.reason = "degenerate", reason
        return out

    alpha = 1.0
    for it in range(cfg.max_outer):
        coords = _embed(split, t, wp, vm)
        u = split.values_of(coords)
        g = ws.grad(coords, u)
        res_full = float(np.linalg.norm(g))
        res_minus = float(np.linalg.norm(g[split.minus]))
        out.trace.append({"iter": it, "level": val, "residual_full": res_full,
                          "residual_minus": res_minus, "t": t})
        out.outer_iterations = it
        out.value, out.res_full, out.t, out.wp, out.vm = val, res_full, t, wp, vm
        if res_full <= cfg.outer_tol * (1.0 + float(np.linalg.norm(coords))):
            out.status = "converged"
            return out

        # Riemannian gradient of the reduced value on the X^+ unit sphere
        d = t * g[split.plus] / lam_pos
        d -= float(np.sum(lam_pos * d * wp)) * wp
        dnorm2 = float(np.sum(lam_pos * d ** 2))
        if dnorm2 <= (1e-14 * max(1.0, abs(val))) ** 2:
            out.status = "stalled"
            return out

        accepted = False
        for _ in range(cfg.max_backtracks):
            wp_try = wp - alpha * d
            norm = split.plus_norm(wp_try)
            if norm < 1e-14:
                alpha *= cfg.backtrack_shrink
                continue
            wp_try /= norm
            try:
                t2, vm2, val2, _, its, reason = _inner_core(
                    _Slab(ws, wp_try), t, vm.copy(), cfg)
                out.inner_iterations += its
            except ConvergenceError:
                alpha *= cfg.backtrack_shrink
                continue
            if reason is not None:
                alpha *= cfg.backtrack_shrink
                continue
            if val2 <= val - cfg.armijo * alpha * dnorm2:
                wp, t, vm, val = wp_try, t2, vm2, val2
                alpha = min(alpha * 1.5, 8.0)
                accepted = True
                break
            alpha *= cfg.backtrack_shrink
        if not accepted:
            out.status = "stalled"
            return out
    out.status = "stalled"
    return out


def outer_minimize(split: SpectralSplit, model: Nonlinearity, rho: float,
                   config: SolverConfig | None = None,
                   weight: HardyWeight = EUCLIDEAN_WEIGHT,
                   warm_start: LatticeField | None = None) -> GroundStateResult:
    """Minimize the reduced functional over unit X^+ directions (multistart).

    Returns the least-level candidate before Newton polishing.  Ties within
    1e-10 are broken by the smaller l2 norm.  Raises DegenerateProblemError
    when every start collapses.
    """
    cfg = config or SolverConfig()
    ws = _Workspace(split, model, rho, weight)
    npos = split.positive_count
    starts: list[tuple[np.ndarray, tuple | None]] = []
    if warm_start is not None:
        coords = split.to_coords(warm_start)
        wp = coords[split.plus]
        t0 = split.plus_norm(wp)
        if t0 < 1e-12:
            raise InvalidInputError("warm start has no X^+ component")
        starts.append((wp / t0, (t0, coords[split.minus].copy())))
    else:
        # deterministic starts: lowest positive eigenvector, and the X^+
        # part of a centered bump (biases one basin toward interior states)
        lowest = np.zeros(npos)
        lowest[0] = 1.0 / np.sqrt(split.plus_eigenvalues[0])
        starts.append((lowest, None))
        if cfg.multistart >= 2:
            origin = split.box.index_of(np.zeros(split.box.dimension, dtype=int))
            bump = split.plus_vectors[origin].copy()
            starts.append((bump / split.plus_norm(bump), None))
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.multistart - 2):
            wp = rng.standard_normal(npos)
            starts.append((wp / split.plus_norm(wp), None))

    results = [_outer_single(ws, wp, cfg, i, warm)
               for i, (wp, warm) in enumerate(starts)]
    usable = [r for r in results if r.status in ("converged", "stalled")]
    boundary = {}
    if cfg.max_boundary_mass is not None:
        for r in usable:
            values = split.values_of(_embed(split, r.t, r.wp, r.vm))
            boundary[r.index] = boundary_mass_fraction(
                split.box, values, cfg.boundary_layers)
        interior = [r for r in usable if boundary[r.index] <= cfg.max_boundary_mass]
        if not interior:
            raise ConvergenceError(
                "every candidate is boundary-localized (mass fractions "
                + ", ".join(f"{boundary[r.index]:.2e}" for r in usable)
                + f" all above {cfg.max_boundary_mass}); increase the box radius")
        usable = interior
    if not usable:
        if all(r.status == "degenerate" for r in results):
            raise DegenerateProblemError("degenerate: no nontrivial critical point")
        raise ConvergenceError(
            "no start converged: " + "; ".join(r.reason or r.status for r in results))

    def l2_of(r):
        return float(np.linalg.norm(_embed(split, r.t, r.wp, r.vm)))

    best = min(usable, key=lambda r: (round(r.value / 1e-10), l2_of(r)))
    coords = _embed(split, best.t, best.wp, best.vm)
    u = split.from_coords(coords)
    g = ws.grad(coords)
    levels = sorted(r.value for r in usable)
    distinct = bool(levels and (levels[-1] - levels[0]) >
                    1e-6 * max(1.0, abs(levels[0])))
    # translation-family diagnostic: candidates at the same level should
    # agree in l2 after recentering; a mismatch is flagged, never failed
    # (box ground states need not be unique, even up to translation)
    family_gap = 0.0
    if len(usable) > 1:
        centered = [recenter(split.from_coords(_embed(split, r.t, r.wp, r.vm)))[0].values
                    for r in usable
                    if abs(r.value - best.value) <= 1e-6 * max(1.0, abs(best.value))]
        for i in range(len(centered)):
            for j in range(i + 1, len(centered)):
                family_gap = max(family_gap, float(np.linalg.norm(
                    centered[i] - centered[j])))
    return GroundStateResult(
        u=u, c_rho=best.value,
        residual_full=float(np.linalg.norm(g)),
        residual_along_u=float(g @ coords),
        residual_along_minus=float(np.linalg.norm(g[split.minus])),
        outer_iterations=best.outer_iterations,
        inner_iterations=best.inner_iterations,
        polish_iterations=0, start_index=best.index,
        recenter_shift=(0,) * split.box.dimension,
        trace=best.trace,
        diagnostics={
            "start_levels": [None if r.status not in ("converged", "stalled")
                             else r.value for r in results],
            "start_statuses": [r.status for r in results],
            "start_boundary_mass": {str(k): v for k, v in boundary.items()},
            "distinct_levels_flag": distinct,
            "translation_family_gap": family_gap,
            "translation_family_flag": bool(family_gap > 1e-4),
        })


def _polish_core(split, model, rho, values, cfg, weight):
    terms = SiteTerms(split, model, rho, weight)
    u = values.copy()
    r = terms.gradient(u)
    rn = float(np.linalg.norm(r))
    if rn > cfg.polish_entry * (1.0 + float(np.linalg.norm(u))):
        raise InvalidInputError(
            f"residual {rn:.3e} too large for local Newton polishing")
    history = [rn]
    fails = 0
    for it in range(cfg.max_polish):
        if rn <= cfg.polish_tol * (1.0 + float(np.linalg.norm(u))):
            return u, history, it
        jac = (split.operator - sp.diags(terms.hess_diag(u))).tocsc()
        try:
            delta = spla.splu(jac).solve(-r)
        except RuntimeError as exc:
            raise SingularJacobianError(f"polish Jacobian singular: {exc}") from exc
        best = None
        for k in range(10):
            s = 0.5 ** k
            u_try = u + s * delta
            r_try = terms.gradient(u_try)
            rn_try = float(np.linalg.norm(r_try))
            if best is None or rn_try < best[0]:
                best = (rn_try, u_try, r_try)
            if rn_try < rn:
                break
        if best[0] >= rn:
            fails += 1
            if fails >= 10:
                raise ConvergenceError(
                    f"Newton polish diverged: residual stuck at {rn:.3e}")
        else:
            fails = 0
        rn, u, r = best
        history.append(rn)
    if rn <= cfg.polish_tol * (1.0 + float(np.linalg.norm(u))):
        return u, history, cfg.max_polish
    raise ConvergenceError(
        f"Newton polish exceeded {cfg.max_polish} iterations (residual {rn:.3e})")


def polish_newton(split: SpectralSplit, model: Nonlinearity, rho: float,
                  u0: LatticeField, config: SolverConfig | None = None,
                  weight: HardyWeight = EUCLIDEAN_WEIGHT) -> GroundStateResult:
    """Damped Newton on the full gradient from a near-critical start.

    The Jacobian is A - rho W - diag(df(., u)); steps are damped by halving
    until the residual decreases.  Starting at an exact solution returns the
    input unchanged after zero iterations.
    """
    cfg = config or SolverConfig()
    if u0.box != split.box:
        raise InvalidInputError("field box does not match the split's box")
    values, history, iters = _polish_core(split, model, rho, u0.values, cfg, weight)
    u = LatticeField(split.box, values)
    res = nehari_residual(split, model, u, rho, weight)
    return GroundStateResult(
        u=u, c_rho=evaluate_energy(split, model, u, rho, weight).value,
        residual_full=res.full,
        residual_along_u=res.along_u,
        residual_along_minus=res.along_minus,
        outer_iterations=0, inner_iterations=0, polish_iterations=iters,
        start_index=-1, recenter_shift=(0,) * split.box.dimension,
        polish_residuals=history)


def maximality_certificate(split: SpectralSplit, model: Nonlinearity,
                           u: LatticeField, rho: float, n_samples: int = 200,
                           seed: int = 0, tol: float = 1e-6,
                           weight: HardyWeight = EUCLIDEAN_WEIGHT):
    """Sampled check that J(u) >= J(t u + v) - tol over the slab through u.

    Returns (ok, worst_excess).  At a Nehari point the inequality holds for
    every t >= 0 and v in X^-; the samples take t in [0, 3) and v of
    equivalent norm up to 3 max(||u||, 1).
    """
    ws = _Workspace(split, model, rho, weight)
    cu = split.to_coords(u)
    um = cu[split.minus]
    # t u + v lies on the slab through u^+ at X^- coordinates t u^- + dv
    slab = _Slab(ws, cu[split.plus])
    base = slab.value(1.0, um, u.values)
    v_radius = 3.0 * max(_metric_norm(split.abs_eigenvalues, cu), 1.0)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_samples):
        t = rng.uniform(0.0, 3.0)
        dv = _minus_perturbation(split, rng, v_radius)
        site = t * u.values + split.minus_vectors @ dv
        worst = max(worst, slab.value(t, t * um + dv, site) - base)
    return worst <= tol, worst


def _sampled_sphere_floor(ws: _Workspace, rng, n_samples: int = 50):
    """Rough positive lower level on a small X^+ sphere (sanity floor)."""
    split = ws.split
    dirs = rng.standard_normal((n_samples, split.positive_count))
    for i in range(n_samples):
        dirs[i] /= split.plus_norm(dirs[i])
    # each direction's site values are computed once; a radius is a rescale
    slabs = [_Slab(ws, d) for d in dirs]
    no_minus = np.zeros(split.negative_count)

    def sampled_min(radius):
        return min(s.value(radius, no_minus, radius * s.ew) for s in slabs)

    radius = 1.0
    for _ in range(40):
        if sampled_min(radius) > 0.0:
            # one extra halving for margin; the sampled min only estimates the inf
            radius *= 0.5
            low = sampled_min(radius)
            if low > 0.0:
                return float(low)
        radius *= 0.5
    return 0.0


def solve_ground_state(split: SpectralSplit, model: Nonlinearity, rho: float,
                       config: SolverConfig | None = None,
                       weight: HardyWeight = EUCLIDEAN_WEIGHT,
                       constants=None,
                       warm_start: LatticeField | None = None) -> GroundStateResult:
    """Full pipeline: outer min-max, Newton polish, recentering, exit checks.

    Post-conditions enforced on the returned state: both Nehari residuals at
    the polish tolerance, positive level above the sampled sphere floor, and
    (by default) the sampled maximality certificate.
    """
    cfg = config or SolverConfig()
    if not rho >= 0:
        raise InvalidInputError(f"rho must be >= 0, got {rho}")
    if isinstance(model, CustomNonlinearity) and model.F_fn is None:
        # the quadrature fallback costs 20,001 f evaluations per site per call
        raise InvalidInputError(
            "CustomNonlinearity without F_fn: the solver needs the primitive "
            "F in closed form")
    if cfg.boundary_layers >= split.box.radius:
        raise InvalidInputError(
            f"boundary_layers = {cfg.boundary_layers} must be below the box "
            f"radius {split.box.radius}")
    if cfg.validate_model:
        report = validate_hypotheses(model)
        if not report.all_passed:
            raise ModelHypothesisError(
                "nonlinearity fails hypotheses: " + ", ".join(report.failed_names()))
    if rho > 0:
        if constants is None:
            constants = compute_constants(split, weight)
        cap = 0.9 * constants.rho_max
        if rho > cap * (1.0 + 1e-12):
            raise RhoOutOfRangeError(
                f"rho = {rho} exceeds 0.9 * rho_max = {cap}")

    candidate = outer_minimize(split, model, rho, cfg, weight, warm_start)
    polished = polish_newton(split, model, rho, candidate.u, cfg, weight)

    # the polish that is kept has already evaluated its level and residuals
    kept, shift = polished, (0,) * split.box.dimension
    polish_iters = polished.polish_iterations
    history = polished.polish_residuals
    peak = int(np.argmax(np.abs(polished.u.values)))
    peak_site = split.box.sites[peak]
    if np.any(peak_site != 0):
        try:
            moved, shift_arr = recenter(polished.u)
            kept = polish_newton(split, model, rho, moved, cfg, weight)
            shift = tuple(int(s) for s in shift_arr)
            polish_iters += kept.polish_iterations
            history = history + kept.polish_residuals
        except (InvalidInputError, ConvergenceError, SingularJacobianError):
            pass

    u, level = kept.u, kept.c_rho
    ws = _Workspace(split, model, rho, weight)
    coords = split.to_coords(u)
    l2 = float(np.linalg.norm(u.values))
    plus_norm = split.plus_norm(coords[split.plus])

    problems = []
    if kept.residual_full > cfg.polish_tol * (1.0 + l2):
        problems.append(f"full residual {kept.residual_full:.3e}")
    if abs(kept.residual_along_u) > cfg.polish_tol * (1.0 + l2 ** 2):
        problems.append(f"residual along u {kept.residual_along_u:.3e}")
    if kept.residual_along_minus > cfg.polish_tol:
        problems.append(f"residual along X^- {kept.residual_along_minus:.3e}")
    if plus_norm <= 1e-8:
        problems.append("u has no X^+ component")
    if not level > 0.0:
        problems.append(f"level {level!r} not positive")
    bmass = boundary_mass_fraction(split.box, u.values, cfg.boundary_layers)
    if cfg.max_boundary_mass is not None and bmass > cfg.max_boundary_mass:
        problems.append(
            f"boundary mass fraction {bmass:.3e} above {cfg.max_boundary_mass}")
    floor = _sampled_sphere_floor(ws, np.random.default_rng(cfg.seed + 1259))
    if level < 0.5 * floor:
        problems.append(f"level {level:.6e} below half the sphere floor {floor:.6e}")
    certified = None
    if cfg.certify:
        certified, worst = maximality_certificate(
            split, model, u, rho, n_samples=cfg.certificate_samples,
            seed=cfg.seed + 3571, tol=cfg.certificate_tol, weight=weight)
        if not certified:
            problems.append(f"maximality certificate violated by {worst:.3e}")
    if problems:
        raise PostConditionError("not a Nehari point: " + "; ".join(problems))

    diagnostics = dict(candidate.diagnostics)
    diagnostics["sphere_floor"] = floor
    diagnostics["certified"] = certified
    diagnostics["boundary_mass"] = bmass
    return GroundStateResult(
        u=u, c_rho=level, residual_full=kept.residual_full,
        residual_along_u=kept.residual_along_u,
        residual_along_minus=kept.residual_along_minus,
        outer_iterations=candidate.outer_iterations,
        inner_iterations=candidate.inner_iterations,
        polish_iterations=polish_iters, start_index=candidate.start_index,
        recenter_shift=shift, trace=candidate.trace,
        polish_residuals=history, diagnostics=diagnostics)
