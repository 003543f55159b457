"""Ground-state computation by the reduced min-max.

For each unit direction w in X^+ the energy is maximized over the slab
R+ w (+) X^- (the inner problem); the resulting reduced value is then
minimized over the unit sphere of X^+ (the outer problem); a damped Newton
iteration on the full gradient polishes the incumbent to the final
residual.  The inner maximizer is not assumed unique: a sampled
perturbation certificate replaces the uniqueness assumption.

The inner loop tries Newton-CG at every iterate, with a metric-scaled
Armijo ascent step as fallback; under the monotone-slope hypothesis
(always validated) the slab's only critical point with t > 0 is its
maximum (Szulkin & Weth 2009).  Each outer line search starts at the
Barzilai-Borwein length of the last accepted step in the X^+ metric and
halves it until the Armijo test holds.

The outer problem works in eigencoordinates of the split, where the
equivalent norm is diagonal (||u||^2 = sum |lambda_i| c_i^2) and the
positive/negative projections are the split's index slices `minus` and
`plus`; the maximality certificate draws in site space and projects.
The inner problem runs in slab coordinates (t, vm): the scalar along w
and the X^- eigencoordinates.  With E_+ w computed once
per inner solve, each of its evaluations multiplies by the X^- columns
only, one parity sector at a time (`SpectralSplit.values_of`).
The site-space terms of J, J' and J'' come from `energy.SiteTerms`, which
also carries the split; this module adds only the quadratic parts.
The multistart's starts are independent, so on Linux they run in up to
min(starts, cores) worker processes forked from the caller, which inherit
the split and the starts without pickling them.  Results and the first
exception are taken in start order, so they are those of running the
starts one after another in-process, which is what a warm start, a
single start, a single core or a platform without fork does.  No setting
chooses the worker count; the CLI's `--threads` is still ignored.
`SolverConfig` holds only the study's parameters (seed, multistart,
interior filter); the tolerances, iteration caps and certificate settings
are its class constants, and the model hypotheses are always validated.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field as dataclass_field
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import SiteTerms, evaluate_energy, nehari_residual
from .errors import (ConvergenceError, DegenerateProblemError,
                     InvalidInputError, ModelHypothesisError, NumericalError,
                     PostConditionError, RhoOutOfRangeError,
                     SingularJacobianError)
from .hardy import EUCLIDEAN_WEIGHT, HardyWeight, compute_constants
from .lattice import LatticeField
from .nonlinearity import U_MAX, Nonlinearity, validate_hypotheses
from .spectral import SpectralSplit, split_norm


@dataclass(frozen=True)
class SolverConfig:
    """The study's parameters: the seed, the multistart and the interior filter.

    Tolerances, iteration caps and certificate settings are class constants.
    """

    seed: int = 0
    multistart: int = 5
    # Dirichlet walls support boundary-pinned critical points below the bulk
    # soliton level; a threshold on the squared-mass fraction in the outer
    # layers restricts the search to interior states (None = box-global).
    max_boundary_mass: float | None = None
    inner_tol: ClassVar[float] = 1e-10      # projected gradient norm of the inner problem
    outer_tol: ClassVar[float] = 1e-5       # full gradient norm before polishing
    polish_tol: ClassVar[float] = 1e-8      # final ||J'(u)||_2 <= polish_tol (1 + ||u||_2)
    polish_entry: ClassVar[float] = 1e-2    # largest residual accepted by the polisher
    max_inner: ClassVar[int] = 2000
    max_outer: ClassVar[int] = 400
    max_polish: ClassVar[int] = 60
    certificate_samples: ClassVar[int] = 200
    certificate_tol: ClassVar[float] = 1e-6
    boundary_layers: ClassVar[int] = 1      # the outer layers of max_boundary_mass
    # step-control constants of the inner and outer searches; not settable
    armijo: ClassVar[float] = 1e-4
    backtrack_shrink: ClassVar[float] = 0.5
    max_backtracks: ClassVar[int] = 50
    t_cap: ClassVar[float] = 1e6  # scalar growth beyond this flags a degenerate direction

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.multistart < 1:
            raise InvalidInputError("multistart must be >= 1")
        if self.max_boundary_mass is not None and not 0.0 < self.max_boundary_mass <= 1.0:
            raise InvalidInputError("max_boundary_mass must be None or in (0, 1]")


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
    trace: list[dict] = dataclass_field(default_factory=list)
    polish_residuals: list[float] = dataclass_field(default_factory=list)
    diagnostics: dict = dataclass_field(default_factory=dict)


def _coords_grad(terms: SiteTerms, coords: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Eigencoordinates  Lambda c - E^T force(u)  of J' at c, with u = E c."""
    return terms.split.eigenvalues * coords - terms.split.coords_of(terms.force(u))


class _Slab:
    """The slab R+ w (+) X^- in coordinates (t, vm).

    The point (t, vm) has eigencoordinates (vm, t wp) and site values
    t ew + E_- vm, with ew = E_+ wp precomputed, so an evaluation multiplies
    by the split's X^- columns only.
    """

    def __init__(self, terms: SiteTerms, wp: np.ndarray):
        self.terms = terms
        self.split = terms.split
        self.wp = wp
        self.ew = self.split.values_of(wp, "plus")
        self.qw = float(np.sum(self.split.plus_eigenvalues * wp ** 2))

    def site_values(self, t: float, vm: np.ndarray) -> np.ndarray:
        return t * self.ew + self.split.values_of(vm, "minus")

    def value(self, t: float, vm: np.ndarray, u: np.ndarray) -> float:
        quad = t * t * self.qw + float(np.sum(self.split.minus_eigenvalues * vm ** 2))
        return 0.5 * quad - self.terms.energy(u)

    def restrict(self, t: float, vm: np.ndarray, r: np.ndarray):
        """Slab components (along w, along X^-) of  Lambda c - E^T r  at c = (vm, t wp)."""
        return (t * self.qw - float(self.ew @ r),
                self.split.minus_eigenvalues * vm - self.split.coords_of(r, "minus"))

    def grad(self, t: float, vm: np.ndarray, u: np.ndarray):
        return self.restrict(t, vm, self.terms.force(u))


def boundary_mass_fraction(box, values: np.ndarray) -> float:
    """Fraction of the squared mass sitting within `SolverConfig.boundary_layers`
    of the box walls."""
    outer = np.max(np.abs(box.sites), axis=1) > box.radius - SolverConfig.boundary_layers
    total = float(np.sum(values ** 2))
    return float(np.sum(values[outer] ** 2)) / total if total > 0 else 0.0


def _inner_residual(t, gt, gv):
    along_t = abs(gt) if t > 0.0 else max(gt, 0.0)
    return max(along_t, float(np.linalg.norm(gv)))


def _inner_core(slab: _Slab, t: float, vm: np.ndarray):
    """Maximize value over (t >= 0, vm).  Returns (t, vm, value, res, iters, reason)."""
    u = slab.site_values(t, vm)
    val = slab.value(t, vm, u)
    gt, gv = slab.grad(t, vm, u)
    alpha = 1.0
    for it in range(SolverConfig.max_inner):
        res = _inner_residual(t, gt, gv)
        if res <= SolverConfig.inner_tol:
            return t, vm, val, res, it, None
        if t > SolverConfig.t_cap or val > 1e12:
            return t, vm, val, res, it, "unbounded ascent: no superquadratic confinement"
        if t <= 1e-12 and gt <= 0.0 and np.linalg.norm(gv) <= SolverConfig.inner_tol:
            return 0.0, vm, val, res, it, "t collapsed to zero: infeasible direction"

        # Newton-CG first; the metric ascent step when CG finds no ascent
        # direction or no damped trial lowers the residual
        stepped = False
        s = _inner_newton_step(slab, u, gt, gv, res)
        if s is not None:
            st, sv = s
            for k in range(SolverConfig.max_backtracks):
                damp = SolverConfig.backtrack_shrink ** k
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
            for k in range(SolverConfig.max_backtracks):
                t_try = max(t + alpha * dt, 0.0)
                vm_try = vm + alpha * dv
                pred = gt * (t_try - t) + float(gv @ (vm_try - vm))
                u_try = slab.site_values(t_try, vm_try)
                val_try = slab.value(t_try, vm_try, u_try)
                if val_try >= val + SolverConfig.armijo * pred and pred >= 0.0:
                    t, vm, u, val = t_try, vm_try, u_try, val_try
                    gt, gv = slab.grad(t, vm, u)
                    alpha = min(alpha * 1.5, 4.0)
                    stepped = True
                    break
                alpha *= SolverConfig.backtrack_shrink
            if not stepped:
                raise ConvergenceError(
                    f"inner maximization stalled at residual {res:.3e}")
    raise ConvergenceError(
        f"inner maximization exceeded {SolverConfig.max_inner} iterations")


def _inner_newton_step(slab: _Slab, u, gt, gv, res):
    """Inexact Newton step on the reduced gradient via preconditioned CG.

    Solves (-H_red) s = r for r = (gt, gv); -H_red is positive definite near
    the maximizer for models with nonnegative df.  Returns None when the CG
    step is no ascent direction, as when CG hits non-positive curvature at
    once, which can happen far from the maximizer.
    """
    d_site = slab.terms.hess_diag(u)

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
    values: np.ndarray | None = None  # site values of the last iterate
    coords_norm: float = np.inf       # l2 norm of its eigencoordinates
    residuals: dict = dataclass_field(default_factory=dict)  # of its J'
    outer_iterations: int = 0
    inner_iterations: int = 0
    line_search_trials: int = 0  # inner solves of the line search
    trace: list = dataclass_field(default_factory=list)
    reason: str | None = None


def _outer_single(terms: SiteTerms, wp0: np.ndarray, index: int,
                  warm=None) -> _StartResult:
    split = terms.split
    lam_pos = split.plus_eigenvalues
    wp = wp0.copy()
    out = _StartResult(index=index, status="failed")
    try:
        t, vm = warm if warm is not None else (1.0, np.zeros(split.negative_count))
        t, vm, val, _, its, reason = _inner_core(_Slab(terms, wp), t, vm)
        out.inner_iterations += its
    except ConvergenceError as exc:
        out.reason = str(exc)
        return out
    if reason is not None:
        out.status, out.reason = "degenerate", reason
        return out

    alpha = 1.0
    last = None  # (wp, d) at the previous accepted iterate
    for it in range(SolverConfig.max_outer):
        coords = np.empty(split.size)  # the slab point (t, vm) over wp
        coords[split.minus] = vm
        coords[split.plus] = t * wp
        u = split.values_of(coords)
        g = _coords_grad(terms, coords, u)
        res_full = float(np.linalg.norm(g))
        res_minus = float(np.linalg.norm(g[split.minus]))
        out.trace.append({"iter": it, "level": val, "residual_full": res_full,
                          "residual_minus": res_minus, "t": t})
        out.outer_iterations = it
        out.value, out.values = val, u
        out.coords_norm = float(np.linalg.norm(coords))
        out.residuals = {"residual_full": res_full,
                         "residual_along_u": float(g @ coords),
                         "residual_along_minus": res_minus}
        if res_full <= SolverConfig.outer_tol * (1.0 + out.coords_norm):
            out.status = "converged"
            return out

        # Riemannian gradient of the reduced value on the X^+ unit sphere
        d = t * g[split.plus] / lam_pos
        d -= float(np.sum(lam_pos * d * wp)) * wp
        dnorm2 = float(np.sum(lam_pos * d ** 2))
        if dnorm2 <= (1e-14 * max(1.0, abs(val))) ** 2:
            out.status = "stalled"
            return out
        # Barzilai-Borwein step <s, s> / <s, y> in the same metric, from the
        # last accepted step; the previous alpha where <s, y> <= 0
        if last is not None:
            s, y = wp - last[0], d - last[1]
            sy = float(np.sum(lam_pos * s * y))
            if sy > 0.0:
                alpha = min(max(float(np.sum(lam_pos * s * s)) / sy, 1e-3), 8.0)

        accepted = False
        for _ in range(SolverConfig.max_backtracks):
            wp_try = wp - alpha * d
            norm = split.plus_norm(wp_try)
            if norm < 1e-14:
                alpha *= SolverConfig.backtrack_shrink
                continue
            wp_try /= norm
            out.line_search_trials += 1
            try:
                t2, vm2, val2, _, its, reason = _inner_core(
                    _Slab(terms, wp_try), t, vm.copy())
                out.inner_iterations += its
            except ConvergenceError:
                alpha *= SolverConfig.backtrack_shrink
                continue
            if reason is not None:
                alpha *= SolverConfig.backtrack_shrink
                continue
            if val2 <= val - SolverConfig.armijo * alpha * dnorm2:
                last = (wp, d)
                wp, t, vm, val = wp_try, t2, vm2, val2
                accepted = True
                break
            alpha *= SolverConfig.backtrack_shrink
        if not accepted:
            out.status = "stalled"
            return out
    out.status = "stalled"
    return out


# (terms, starts) of a worker process, set by the pool's initializer from
# what fork handed over; never set in the calling process
_worker_inputs: tuple = ()


def _init_worker(terms: SiteTerms, starts: list) -> None:
    global _worker_inputs
    _worker_inputs = (terms, starts)
    # the pool's queues never tell a worker that the calling process was
    # killed, so each worker watches the caller's end of its pipe
    threading.Thread(target=_exit_with_caller, daemon=True).start()


def _exit_with_caller() -> None:
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _worker_task(index: int) -> _StartResult:
    terms, starts = _worker_inputs
    wp, warm = starts[index]
    return _outer_single(terms, wp, index, warm)


def _run_starts(terms: SiteTerms, starts: list) -> list[_StartResult]:
    """`_outer_single` over the starts, in min(starts, cores) forked worker
    processes, or in-process where that is one or the platform cannot fork
    or tell its cores.  Results and the first exception are taken in start
    order; a worker that dies is a NumericalError naming the first start it
    left unfinished."""
    workers = 1
    if ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity")):
        workers = min(len(starts), len(os.sched_getaffinity(0)))
    if workers == 1:
        return [_outer_single(terms, wp, i, warm)
                for i, (wp, warm) in enumerate(starts)]
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _init_worker, (terms, starts))
    try:
        futures = [pool.submit(_worker_task, i) for i in range(len(starts))]
        results = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                raise NumericalError(
                    f"start {index}: a multistart worker process died before "
                    "the start finished") from exc
        return results
    finally:
        # after a failure the starts not yet begun are dropped; the workers
        # are joined either way, so no child process outlives the call
        pool.shutdown(cancel_futures=True)


def outer_minimize(split: SpectralSplit, model: Nonlinearity, rho: float,
                   config: SolverConfig | None = None,
                   weight: HardyWeight = EUCLIDEAN_WEIGHT,
                   warm_start: LatticeField | None = None) -> GroundStateResult:
    """Minimize the reduced functional over unit X^+ directions (multistart).

    Returns the least-level candidate before Newton polishing.  Ties within
    1e-10 are broken by the smaller l2 norm.  Raises DegenerateProblemError
    when every start collapses.  The diagnostics list each start's level,
    status, outer and inner iterations and line-search trials in start order.

    The starts (one for a warm start) run in up to min(starts, cores)
    forked worker processes where the platform can fork, and in-process
    otherwise.  Results, and the first exception a start raises, are taken
    in start order, so every result is that of running the starts one after
    another; after a failure the starts not yet begun are cancelled.
    """
    cfg = config or SolverConfig()
    terms = SiteTerms(split, model, rho, weight)
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
        # part of a centered bump (biases one basin toward interior states).
        # The lowest X^+ eigenvalue can be degenerate (+1 is 19-fold for the
        # checkerboard at R = 6), so start 0 is the one vector of that
        # eigenspace that LAPACK returns.
        # The random starts are drawn in site space and projected onto X^+:
        # E is orthogonal, so their law is that of iid eigencoordinates, but
        # they do not depend on the basis chosen inside degenerate eigenspaces.
        lowest = np.zeros(npos)
        lowest[0] = 1.0 / np.sqrt(split.plus_eigenvalues[0])
        starts.append((lowest, None))
        if cfg.multistart >= 2:
            bump = np.zeros(split.size)
            bump[split.box.index_of(np.zeros(split.box.dimension, dtype=int))] = 1.0
            wp = split.coords_of(bump, "plus")
            starts.append((wp / split.plus_norm(wp), None))
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.multistart - 2):
            wp = split.coords_of(rng.standard_normal(split.size), "plus")
            starts.append((wp / split.plus_norm(wp), None))

    results = _run_starts(terms, starts)
    usable = [r for r in results if r.status in ("converged", "stalled")]
    boundary = {}
    if cfg.max_boundary_mass is not None:
        boundary = {r.index: boundary_mass_fraction(split.box, r.values) for r in usable}
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

    best = min(usable, key=lambda r: (round(r.value / 1e-10), r.coords_norm))
    levels = sorted(r.value for r in usable)
    distinct = bool(levels and (levels[-1] - levels[0]) >
                    1e-6 * max(1.0, abs(levels[0])))
    return GroundStateResult(
        u=LatticeField(split.box, best.values), c_rho=best.value, **best.residuals,
        outer_iterations=best.outer_iterations,
        inner_iterations=best.inner_iterations,
        polish_iterations=0, start_index=best.index, trace=best.trace,
        diagnostics={
            "start_levels": [None if r.status not in ("converged", "stalled")
                             else r.value for r in results],
            "start_statuses": [r.status for r in results],
            "start_outer_iterations": [r.outer_iterations for r in results],
            "start_inner_iterations": [r.inner_iterations for r in results],
            "start_line_search_trials": [r.line_search_trials for r in results],
            "start_boundary_mass": {str(k): v for k, v in boundary.items()},
            "distinct_levels_flag": distinct,
        })


def _polish_core(terms: SiteTerms, values: np.ndarray):
    u = values.copy()
    r = terms.gradient(u)
    rn = float(np.linalg.norm(r))
    if rn > SolverConfig.polish_entry * (1.0 + float(np.linalg.norm(u))):
        raise InvalidInputError(
            f"residual {rn:.3e} too large for local Newton polishing")
    history = [rn]
    fails = 0
    for it in range(SolverConfig.max_polish):
        if rn <= SolverConfig.polish_tol * (1.0 + float(np.linalg.norm(u))):
            return u, history, it
        jac = (terms.operator - sp.diags(terms.hess_diag(u))).tocsc()
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
    if rn <= SolverConfig.polish_tol * (1.0 + float(np.linalg.norm(u))):
        return u, history, SolverConfig.max_polish
    raise ConvergenceError(f"Newton polish exceeded {SolverConfig.max_polish} "
                           f"iterations (residual {rn:.3e})")


def polish_newton(split: SpectralSplit, model: Nonlinearity, rho: float,
                  u0: LatticeField,
                  weight: HardyWeight = EUCLIDEAN_WEIGHT) -> GroundStateResult:
    """Damped Newton on the full gradient from a near-critical start.

    The Jacobian is A - rho W - diag(df(u)); steps are damped by halving
    until the residual decreases.  Starting at an exact solution returns the
    input unchanged after zero iterations.
    """
    if u0.box != split.box:
        raise InvalidInputError("field box does not match the split's box")
    values, history, iters = _polish_core(SiteTerms(split, model, rho, weight),
                                          u0.values)
    u = LatticeField(split.box, values)
    res = nehari_residual(split, model, u, rho, weight)
    return GroundStateResult(
        u=u, c_rho=evaluate_energy(split, model, u, rho, weight).value,
        residual_full=res.full,
        residual_along_u=res.along_u,
        residual_along_minus=res.along_minus,
        outer_iterations=0, inner_iterations=0, polish_iterations=iters,
        start_index=-1, polish_residuals=history)


def maximality_certificate(split: SpectralSplit, model: Nonlinearity,
                           u: LatticeField, rho: float, seed: int = 0,
                           weight: HardyWeight = EUCLIDEAN_WEIGHT):
    """Sampled check that J(u) >= J(t u + v) - tol over the slab through u.

    Returns (ok, worst_excess).  At a Nehari point the inequality holds for
    every t >= 0 and v in X^-.  The `SolverConfig.certificate_samples` samples
    take t in [0, 3) and v = P_- g, g standard normal in site space, scaled to
    an equivalent norm in [0, 3 max(||u||, 1)), so they do not depend on the
    eigenbasis; J is evaluated on all of them at once.  tol is
    `SolverConfig.certificate_tol`.
    """
    k = SolverConfig.certificate_samples
    terms = SiteTerms(split, model, rho, weight)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 3.0, k)
    # w holds the samples' X^- coordinates v, then their site values t u + v
    w = split.coords_of(rng.standard_normal((split.size, k)), "minus")
    norm = np.sqrt(np.sum(split.abs_minus_eigenvalues[:, None] * w ** 2, axis=0))
    radii = rng.uniform(0.0, 3.0 * max(split_norm(split, u), 1.0), k)
    w *= radii / np.where(norm > 0.0, norm, 1.0)
    w = split.values_of(w, "minus")
    w += u.values[:, None] * ts

    def levels(v):  # J at each column of v
        return 0.5 * np.sum(v * (terms.operator @ v), axis=0) - terms.energy(v.T)

    worst = float(np.max(levels(w)) - levels(u.values[:, None])[0])
    return worst <= SolverConfig.certificate_tol, worst


def _sphere_floor(split: SpectralSplit, model: Nonlinearity, alpha: float) -> float:
    """Closed-form lower bound on every Nehari-Pankov level, clipped at 0.

    A Nehari-Pankov point maximizes J on its slab, which holds the X^+ field
    w of norm d sqrt(lambda), lambda the least X^+ eigenvalue.  There
    |w(x)| <= ||w||_2 <= d, and F(s) <= max F(+-d) s^2 / d^2 for |s| <= d
    (F / s^2 grows with |s| under the validated monotone slope), so
    J(w) >= alpha lambda d^2 / 2 - max F(+-d), where alpha = 1 - rho / rho_max
    bounds the Hardy term.  The floor is the best bound on a geometric grid
    of d up to the validated U_MAX.
    """
    # 253 log steps of 0.055: the best grid point loses at most a fraction
    # p * 0.00075 of the optimal bound
    d = U_MAX * np.geomspace(1e-6, 1.0, 254)
    top = model.F(np.concatenate([d, -d])).reshape(2, d.size).max(axis=0)
    bound = 0.5 * alpha * split.plus_eigenvalues[0] * d * d - top
    return max(0.0, float(bound.max()))


def solve_ground_state(split: SpectralSplit, model: Nonlinearity, rho: float,
                       config: SolverConfig | None = None,
                       weight: HardyWeight = EUCLIDEAN_WEIGHT,
                       constants=None,
                       warm_start: LatticeField | None = None) -> GroundStateResult:
    """Full pipeline: outer min-max, one Newton polish, exit checks.

    Post-conditions enforced on the returned state: both Nehari residuals at
    the polish tolerance, positive level above the closed-form sphere floor
    (`_sphere_floor`), and the sampled maximality certificate.
    """
    cfg = config or SolverConfig()
    if not rho >= 0:
        raise InvalidInputError(f"rho must be >= 0, got {rho}")
    if cfg.boundary_layers >= split.box.radius:
        raise InvalidInputError(
            f"boundary_layers = {cfg.boundary_layers} must be below the box "
            f"radius {split.box.radius}")
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
    # the polish has already evaluated its level and residuals
    polished = polish_newton(split, model, rho, candidate.u, weight)
    u, level = polished.u, polished.c_rho
    coords = split.to_coords(u)
    l2 = float(np.linalg.norm(u.values))
    plus_norm = split.plus_norm(coords[split.plus])

    problems = []
    if polished.residual_full > cfg.polish_tol * (1.0 + l2):
        problems.append(f"full residual {polished.residual_full:.3e}")
    if abs(polished.residual_along_u) > cfg.polish_tol * (1.0 + l2 ** 2):
        problems.append(f"residual along u {polished.residual_along_u:.3e}")
    if polished.residual_along_minus > cfg.polish_tol:
        problems.append(f"residual along X^- {polished.residual_along_minus:.3e}")
    if plus_norm <= 1e-8:
        problems.append("u has no X^+ component")
    if not level > 0.0:
        problems.append(f"level {level!r} not positive")
    bmass = boundary_mass_fraction(split.box, u.values)
    if cfg.max_boundary_mass is not None and bmass > cfg.max_boundary_mass:
        problems.append(
            f"boundary mass fraction {bmass:.3e} above {cfg.max_boundary_mass}")
    floor = _sphere_floor(split, model,
                          1.0 - rho / constants.rho_max if rho > 0 else 1.0)
    if level < floor:
        problems.append(f"level {level:.6e} below the sphere floor {floor:.6e}")
    certified, worst = maximality_certificate(
        split, model, u, rho, seed=cfg.seed + 3571, weight=weight)
    if not certified:
        problems.append(f"maximality certificate violated by {worst:.3e}")
    if problems:
        raise PostConditionError("not a Nehari point: " + "; ".join(problems))

    diagnostics = dict(candidate.diagnostics)
    diagnostics["sphere_floor"] = floor
    diagnostics["certified"] = certified
    diagnostics["boundary_mass"] = bmass
    return GroundStateResult(
        u=u, c_rho=level, residual_full=polished.residual_full,
        residual_along_u=polished.residual_along_u,
        residual_along_minus=polished.residual_along_minus,
        outer_iterations=candidate.outer_iterations,
        inner_iterations=candidate.inner_iterations,
        polish_iterations=polished.polish_iterations,
        start_index=candidate.start_index, trace=candidate.trace,
        polish_residuals=polished.polish_residuals, diagnostics=diagnostics)
