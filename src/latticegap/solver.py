"""Ground-state computation by the reduced min-max.

For each unit direction w in X^+ the energy is maximized over the slab
R+ w (+) X^- (the inner problem, in the coordinates (t, vm) of `_Slab`);
the resulting reduced value is then minimized over the unit sphere of X^+
(the outer problem); a damped Newton iteration on the full gradient
polishes the incumbent to the final residual.  The inner maximizer is not
assumed unique: a closed-form maximality certificate bounds J on the
final state's slab instead.

The inner loop tries Newton-CG at every iterate, with a metric-scaled
Armijo ascent step as fallback; under the monotone-slope hypothesis
(always validated) the slab's only critical point with t > 0 is its
maximum (Szulkin & Weth 2009).  Each outer line search starts at the
Barzilai-Borwein length of the last accepted step in the X^+ metric and
halves it until the Armijo test holds.  The outer problem works in
eigencoordinates of the split, where the equivalent norm is diagonal
(||u||^2 = sum |lambda_i| c_i^2) and the positive/negative projections
are the split's index slices `minus` and `plus`.

The functional J_rho is one `energy.SiteTerms`, which carries the split and
the site-space terms of J, J' and J''; this module adds only the quadratic
parts.  `solve_ground_state` builds it once and hands it to every stage.
The polish ends with one `energy.StateRecord` of its last iterate, which
the level, the residuals, the exit checks and the certificate read.  The
multistart's starts are independent, so they run as `_run_starts` runs
them, in forked worker processes that inherit the split and the starts
without pickling them; no setting chooses the worker count.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import numbers
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field as dataclass_field, replace
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import (NehariResidual, SiteTerms, evaluate_energy, nehari_residual,
                     state_record)
from .errors import (ConvergenceError, DegenerateProblemError,
                     InvalidInputError, ModelHypothesisError, NumericalError,
                     PostConditionError, RhoOutOfRangeError,
                     SingularJacobianError)
from .hardy import EUCLIDEAN_WEIGHT
from .lattice import LatticeField
from .nonlinearity import U_MAX, Nonlinearity, validate_hypotheses
from .spectral import SpectralSplit, check_on_box


@dataclass(frozen=True)
class SolverConfig:
    """The study's parameters: the seed, the multistart and the interior filter.

    Tolerances (the certificate's among them) and iteration caps are class constants.
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
    certificate_tol: ClassVar[float] = 1e-6
    boundary_layers: ClassVar[int] = 1      # the outer layers of max_boundary_mass
    # step-control constants of the inner and outer searches; not settable
    armijo: ClassVar[float] = 1e-4
    backtrack_shrink: ClassVar[float] = 0.5
    max_backtracks: ClassVar[int] = 50
    t_cap: ClassVar[float] = 1e6  # scalar growth beyond this flags a degenerate direction

    def __post_init__(self):
        # a bool is refused as a number here, as the CLI's artifact loader refuses it
        for name, least in (("seed", 0), ("multistart", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise InvalidInputError(f"{name} must be >= {least}, got {value}")
        mass = self.max_boundary_mass
        if mass is not None and (isinstance(mass, bool) or not isinstance(mass, numbers.Real)
                                 or not 0.0 < mass <= 1.0):
            raise InvalidInputError("max_boundary_mass must be None or a real in (0, 1]")


def check_boundary_layers(radius: int) -> None:
    """Refuse a box radius not above the layers `max_boundary_mass` measures."""
    if SolverConfig.boundary_layers >= radius:
        raise InvalidInputError(
            f"boundary_layers = {SolverConfig.boundary_layers} must be below "
            f"the box radius, got {radius}")


@dataclass
class GroundStateResult:
    """Converged ground state with its level, its Nehari-Pankov residuals
    and exit diagnostics.  A stage that did not run leaves its iteration
    count at 0, and a result that no multistart chose has start_index -1."""

    u: LatticeField
    c_rho: float
    residual: NehariResidual
    outer_iterations: int = 0
    inner_iterations: int = 0
    polish_iterations: int = 0
    start_index: int = -1
    trace: list[dict] = dataclass_field(default_factory=list)
    polish_residuals: list[float] = dataclass_field(default_factory=list)
    diagnostics: dict = dataclass_field(default_factory=dict)


def _coords_grad(terms: SiteTerms, coords: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Eigencoordinates  Lambda c - E^T force(u)  of J' at c, with u = E c."""
    return terms.split.eigenvalues * coords - terms.split.coords_of(terms.force(u))


def _plus_norm(split: SpectralSplit, wp: np.ndarray) -> float:
    """Equivalent norm sqrt(sum lambda_i c_i^2) of X^+ eigencoordinates."""
    return float(np.sqrt(np.sum(split.eigenvalues[split.plus] * wp ** 2)))


class _Slab:
    """The slab R+ w (+) X^- in coordinates (t, vm).

    The point (t, vm) has eigencoordinates (vm, t wp) and site values
    t ew + E_- vm, with ew = E_+ wp precomputed, so an evaluation multiplies
    by the split's X^- columns only.  |lambda| on X^- is -lam_minus.
    """

    def __init__(self, terms: SiteTerms, wp: np.ndarray):
        self.terms = terms
        self.split = terms.split
        self.wp = wp
        self.ew = self.split.values_of(wp, "plus")
        self.qw = float(np.sum(self.split.eigenvalues[self.split.plus] * wp ** 2))
        self.lam_minus = self.split.eigenvalues[self.split.minus]

    def site_values(self, t: float, vm: np.ndarray) -> np.ndarray:
        return t * self.ew + self.split.values_of(vm, "minus")

    def value(self, t: float, vm: np.ndarray, u: np.ndarray) -> float:
        quad = t * t * self.qw + float(np.sum(self.lam_minus * vm ** 2))
        return 0.5 * quad - self.terms.energy(u)

    def restrict(self, t: float, vm: np.ndarray, r: np.ndarray):
        """Slab components (along w, along X^-) of  Lambda c - E^T r  at c = (vm, t wp)."""
        return (t * self.qw - float(self.ew @ r),
                self.lam_minus * vm - self.split.coords_of(r, "minus"))

    def grad(self, t: float, vm: np.ndarray, u: np.ndarray):
        return self.restrict(t, vm, self.terms.force(u))


def boundary_mass_fraction(box, values: np.ndarray) -> float:
    """Fraction of the squared mass sitting within `SolverConfig.boundary_layers`
    of the box walls; `values` must make a `LatticeField` on `box`."""
    values = LatticeField(box, values).values
    outer = np.max(np.abs(box.sites), axis=1) > box.radius - SolverConfig.boundary_layers
    total = float(np.sum(values ** 2))
    return float(np.sum(values[outer] ** 2)) / total if total > 0 else 0.0


def _inner_residual(t, gt, gv):
    along_t = abs(gt) if t > 0.0 else max(gt, 0.0)
    return max(along_t, float(np.linalg.norm(gv)))


def _inner_core(slab: _Slab, t: float, vm: np.ndarray):
    """Maximize value over (t >= 0, vm); raises nothing.  Every exit returns
    (t, vm, value, res, steps taken, reason, status), status in a start's words:
    "converged" (reason None), "degenerate" (unbounded ascent, t collapsed)
    or "failed" (no ascent step, or `max_inner` steps)."""
    u = slab.site_values(t, vm)
    val = slab.value(t, vm, u)
    gt, gv = slab.grad(t, vm, u)
    alpha = 1.0
    for it in range(SolverConfig.max_inner):
        res = _inner_residual(t, gt, gv)
        if res <= SolverConfig.inner_tol:
            return t, vm, val, res, it, None, "converged"
        if t > SolverConfig.t_cap or val > 1e12:
            return (t, vm, val, res, it,
                    "unbounded ascent: no superquadratic confinement", "degenerate")
        if t <= 1e-12 and gt <= 0.0 and np.linalg.norm(gv) <= SolverConfig.inner_tol:
            return (0.0, vm, val, res, it,
                    "t collapsed to zero: infeasible direction", "degenerate")

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
            dv = gv / -slab.lam_minus
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
                return (t, vm, val, res, it,
                        f"inner maximization stalled at residual {res:.3e}", "failed")
    return (t, vm, val, _inner_residual(t, gt, gv), SolverConfig.max_inner,
            f"inner maximization exceeded {SolverConfig.max_inner} iterations", "failed")


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
        return -np.concatenate(([ht], hv))

    r = np.concatenate(([gt], gv))
    precond = np.concatenate(([1.0], -slab.lam_minus))
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
    residual: NehariResidual | None = None  # of its J' at the last iterate
    outer_iterations: int = 0
    inner_iterations: int = 0
    line_search_trials: int = 0  # inner solves of the line search
    trace: list = dataclass_field(default_factory=list)
    reason: str | None = None


def _outer_single(terms: SiteTerms, wp0: np.ndarray, index: int,
                  warm=None) -> _StartResult:
    split = terms.split
    lam_pos = split.eigenvalues[split.plus]
    wp = wp0.copy()
    out = _StartResult(index=index, status="stalled")  # until the residual test passes
    t, vm = warm if warm is not None else (1.0, np.zeros(split.negative_count))
    t, vm, val, _, out.inner_iterations, reason, status = _inner_core(
        _Slab(terms, wp), t, vm)
    if status != "converged":
        out.status, out.reason = status, reason
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
        out.residual = NehariResidual(along_u=float(g @ coords),
                                      along_minus=res_minus, full=res_full)
        if res_full <= SolverConfig.outer_tol * (1.0 + out.coords_norm):
            out.status = "converged"
            return out

        # Riemannian gradient of the reduced value on the X^+ unit sphere
        d = t * g[split.plus] / lam_pos
        d -= float(np.sum(lam_pos * d * wp)) * wp
        dnorm2 = float(np.sum(lam_pos * d ** 2))
        if dnorm2 <= (1e-14 * max(1.0, abs(val))) ** 2:
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
            norm = _plus_norm(split, wp_try)
            if norm < 1e-14:
                alpha *= SolverConfig.backtrack_shrink
                continue
            wp_try /= norm
            out.line_search_trials += 1
            # a trial whose inner solve did not converge fails like an Armijo test
            t2, vm2, val2, _, its, _, status = _inner_core(
                _Slab(terms, wp_try), t, vm.copy())
            out.inner_iterations += its
            if status == "converged" and val2 <= val - SolverConfig.armijo * alpha * dnorm2:
                last = (wp, d)
                wp, t, vm, val = wp_try, t2, vm2, val2
                accepted = True
                break
            alpha *= SolverConfig.backtrack_shrink
        if not accepted:
            return out
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
    order, so they are those of running the starts one after another
    in-process, as a warm start, a single start or a single core does; a
    worker that dies is a NumericalError naming the first start it left
    unfinished."""
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


def outer_minimize(terms: SiteTerms, config: SolverConfig | None = None,
                   warm_start: LatticeField | None = None) -> GroundStateResult:
    """Minimize the reduced functional over unit X^+ directions (multistart).

    Returns the least-level candidate before Newton polishing: the start
    of least key (round(level / 1e-10), l2 norm).  Levels in one bucket of
    width 1e-10 tie and the smaller norm wins; levels in adjacent buckets
    do not tie, however close.  With no converged or stalled start it
    raises DegenerateProblemError when every start collapsed and
    ConvergenceError otherwise; the interior filter then sees only usable
    starts and raises ConvergenceError when it keeps none.  The diagnostics
    list each start's level, status, outer and inner iterations and
    line-search trials in start order.  The starts (one for a warm start)
    run as `_run_starts` runs them, so every result is that of running them
    one after another.
    """
    cfg = config or SolverConfig()
    split = terms.split
    starts: list[tuple[np.ndarray, tuple | None]] = []
    if warm_start is not None:
        check_on_box(split, warm_start)
        coords = split.coords_of(warm_start.values)
        wp = coords[split.plus]
        t0 = _plus_norm(split, wp)
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
        lam_pos = split.eigenvalues[split.plus]
        lowest = np.zeros(lam_pos.size)
        lowest[0] = 1.0 / np.sqrt(lam_pos[0])
        starts.append((lowest, None))
        if cfg.multistart >= 2:
            bump = np.zeros(split.size)
            bump[split.box.index_of(np.zeros(split.box.dimension, dtype=int))] = 1.0
            wp = split.coords_of(bump, "plus")
            starts.append((wp / _plus_norm(split, wp), None))
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.multistart - 2):
            wp = split.coords_of(rng.standard_normal(split.size), "plus")
            starts.append((wp / _plus_norm(split, wp), None))

    results = _run_starts(terms, starts)
    usable = [r for r in results if r.status in ("converged", "stalled")]
    if not usable:
        if all(r.status == "degenerate" for r in results):
            raise DegenerateProblemError("degenerate: no nontrivial critical point")
        raise ConvergenceError(
            "no start converged: " + "; ".join(r.reason or r.status for r in results))
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

    best = min(usable, key=lambda r: (round(r.value / 1e-10), r.coords_norm))
    levels = sorted(r.value for r in usable)
    distinct = bool(levels and (levels[-1] - levels[0]) >
                    1e-6 * max(1.0, abs(levels[0])))
    return GroundStateResult(
        u=LatticeField(split.box, best.values), c_rho=best.value,
        residual=best.residual, outer_iterations=best.outer_iterations,
        inner_iterations=best.inner_iterations, start_index=best.index,
        trace=best.trace,
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


def polish_newton(terms: SiteTerms, u0: LatticeField) -> GroundStateResult:
    """Damped Newton on the full gradient from a near-critical start.

    The Jacobian is A - rho W - diag(df(u)); steps are damped by halving
    until the residual decreases.  Starting at an exact solution returns the
    input unchanged after zero iterations; a start whose residual is above
    `SolverConfig.polish_entry` is a ConvergenceError, as is a stalled polish.
    The result's u is the `StateRecord` of the last iterate and its J'.
    """
    check_on_box(terms.split, u0)
    u = u0.values
    r = terms.gradient(u)
    rn = float(np.linalg.norm(r))
    if rn > SolverConfig.polish_entry * (1.0 + float(np.linalg.norm(u))):
        raise ConvergenceError(
            f"residual {rn:.3e} too large for local Newton polishing")
    history = [rn]
    fails = 0
    for it in range(SolverConfig.max_polish + 1):
        if rn <= SolverConfig.polish_tol * (1.0 + float(np.linalg.norm(u))):
            break
        if it == SolverConfig.max_polish:
            raise ConvergenceError(f"Newton polish exceeded {SolverConfig.max_polish} "
                                   f"iterations (residual {rn:.3e})")
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
    u = state_record(terms, LatticeField(terms.split.box, u), r)
    return GroundStateResult(u=u, residual=nehari_residual(terms, u),
                             c_rho=evaluate_energy(terms, u).value,
                             polish_iterations=it, polish_residuals=history)


def maximality_certificate(terms: SiteTerms, u: LatticeField):
    """Closed-form bound on J(t u + v) - J(u) over t in [0, 3] and all v in X^-.

    Returns (ok, bound), ok when bound <= `SolverConfig.certificate_tol`.
    With the Hardy term in the convex part, F~(s) = F(s) + rho w s^2 / 2,
    and r = J'(u), for t >= 0 and v in X^-

        J(t u + v) - J(u) = r.((t^2 - 1)/2 u + t v) + 1/2 (A v, v) + sum g,

    where g <= 0 at every site under the monotone slope (Szulkin & Weth
    2009) and (A v, v) = -||v||^2.  Maximizing over t in [0, 3] and v gives
    bound = 4 |r.u| + 9/2 sum c_j(r)^2 / |lambda_j| over the X^- coordinates
    of r (read from u's `StateRecord`), which does not depend on the
    eigenbasis.  The bound proves maximality only under the monotone slope,
    so a model whose `validate_hypotheses` report fails it is a
    ModelHypothesisError.
    """
    split = terms.split
    state = state_record(terms, u)
    if not validate_hypotheses(terms.model).checks["monotone_slope"].passed:
        raise ModelHypothesisError(
            "the maximality certificate needs the monotone slope f(u)/|u|")
    rm = state.gradient_coords[split.minus]
    bound = (4.0 * abs(float(state.gradient @ state.values))
             + 4.5 * float(np.sum(rm ** 2 / -split.eigenvalues[split.minus])))
    return bound <= SolverConfig.certificate_tol, bound


def _sphere_floor(terms: SiteTerms, alpha: float) -> float:
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
    top = terms.model.F(np.concatenate([d, -d])).reshape(2, d.size).max(axis=0)
    bound = 0.5 * alpha * terms.split.eigenvalues[terms.split.plus][0] * d * d - top
    return max(0.0, float(bound.max()))


def solve_ground_state(split: SpectralSplit, model: Nonlinearity, rho: float,
                       config: SolverConfig | None = None, constants=None,
                       warm_start: LatticeField | None = None) -> GroundStateResult:
    """Full pipeline: outer min-max, one Newton polish, exit checks.

    A coupling rho > 0 needs the box `constants` (`compute_constants`),
    which must fit the split's box; the Hardy weight is theirs, the
    euclidean one without them.  The solve builds its one `SiteTerms`
    first, which refuses a coupling outside [0, inf) before any work.
    Every outcome of the search that is not an input error (a stalled or
    degenerate search, a polish that cannot start or converge, a failed
    exit check) is a NumericalError.
    Post-conditions enforced on the returned state: both Nehari residuals at
    the polish tolerance, positive level above the closed-form sphere floor
    (`_sphere_floor`), and the closed-form maximality certificate, whose
    bound the diagnostics report as `certificate_bound`.  Each reads the
    polish's `StateRecord`, which the result returns as its u.
    """
    terms = SiteTerms(split, model, rho,
                      EUCLIDEAN_WEIGHT if constants is None else constants.weight)
    cfg = config or SolverConfig()
    if constants is not None:
        constants.check_fits(split.box)
    elif rho > 0:
        raise InvalidInputError(
            f"rho = {rho} > 0 needs the box constants (compute_constants)")
    check_boundary_layers(split.box.radius)
    report = validate_hypotheses(model)
    if not report.all_passed:
        raise ModelHypothesisError(
            "nonlinearity fails hypotheses: " + ", ".join(report.failed_names()))
    if rho > 0:
        cap = 0.9 * constants.rho_max
        if rho > cap * (1.0 + 1e-12):
            raise RhoOutOfRangeError(
                f"rho = {rho} exceeds 0.9 * rho_max = {cap}")

    candidate = outer_minimize(terms, cfg, warm_start)
    polished = polish_newton(terms, candidate.u)
    # the polish's record; a state of other origin gets its own
    u, level = state_record(terms, polished.u), polished.c_rho
    l2 = float(np.linalg.norm(u.values))

    # the polish has already refused a full residual above its tolerance
    problems = []
    if abs(polished.residual.along_u) > cfg.polish_tol * (1.0 + l2 ** 2):
        problems.append(f"residual along u {polished.residual.along_u:.3e}")
    if polished.residual.along_minus > cfg.polish_tol:
        problems.append(f"residual along X^- {polished.residual.along_minus:.3e}")
    if _plus_norm(split, u.coords[split.plus]) <= 1e-8:
        problems.append("u has no X^+ component")
    if not level > 0.0:
        problems.append(f"level {level!r} not positive")
    bmass = boundary_mass_fraction(split.box, u.values)
    if cfg.max_boundary_mass is not None and bmass > cfg.max_boundary_mass:
        problems.append(
            f"boundary mass fraction {bmass:.3e} above {cfg.max_boundary_mass}")
    floor = _sphere_floor(terms, 1.0 - rho / constants.rho_max if rho > 0 else 1.0)
    if level < floor:
        problems.append(f"level {level:.6e} below the sphere floor {floor:.6e}")
    certified, bound = maximality_certificate(terms, u)
    if not certified:
        problems.append(f"maximality certificate bound {bound:.3e} above "
                        f"{cfg.certificate_tol}")
    if problems:
        raise PostConditionError("not a Nehari point: " + "; ".join(problems))

    return replace(
        polished, u=u, outer_iterations=candidate.outer_iterations,
        inner_iterations=candidate.inner_iterations,
        start_index=candidate.start_index, trace=candidate.trace,
        diagnostics={**candidate.diagnostics, "sphere_floor": floor,
                     "certificate_bound": bound, "boundary_mass": bmass})
