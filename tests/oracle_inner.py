"""Reference inner maximization in full eigencoordinates.

Every evaluation forms the complete coordinate vector c = (vm, t wp) and
multiplies by the whole eigenvector matrix, as the solver did before its
inner problem moved to slab coordinates.  The iteration (ascent, Newton-CG,
backtracking, exit tests, the early rejection and the inexact stop) mirrors
the solver's step for step, so both paths must land on the same maximizer
to rounding.  Shares no code with the
solver."""

import numpy as np

from conftest import eigenvector_matrix


class FullCoordinateInner:
    """J, J' and the Hessian action in eigencoordinates for one problem."""

    def __init__(self, split, model, rho, site_weight):
        self.E = eigenvector_matrix(split)
        self.lam = split.eigenvalues
        self.abs_lam = np.abs(split.eigenvalues)
        self.nneg = split.negative_count
        self.model = model
        self.rho = float(rho)
        self.w = site_weight

    def embed(self, t, wp, vm):
        coords = np.empty(self.lam.size)
        coords[:self.nneg] = vm
        coords[self.nneg:] = t * wp
        return coords

    def value(self, coords, u):
        out = 0.5 * float(np.sum(self.lam * coords ** 2))
        out -= float(np.sum(self.model.F(u)))
        if self.rho > 0:
            out -= 0.5 * self.rho * float(np.sum(self.w * u * u))
        return out

    def grad(self, coords, u):
        r = self.model.f(u)
        if self.rho > 0:
            r = r + self.rho * self.w * u
        return self.lam * coords - self.E.T @ r

    def hess_mv(self, d_site, dcoords):
        du = self.E @ dcoords
        return self.lam * dcoords - self.E.T @ (d_site * du)

    def maximize(self, wp, t, vm, cfg, ceiling=np.inf, value_bound=np.inf,
                 res_cap=0.0):
        """Returns (t, vm, value, residual, iterations, reason, bound).

        Rejected ("rejected") at the first iterate whose value exceeds
        `ceiling`; converged (reason None) at `inner_tol` with bound 0, or
        where the residual is within `res_cap` and the CG step's half
        Newton decrement, the returned bound, is within `value_bound`."""
        nneg = self.nneg
        coords = self.embed(t, wp, vm)
        u = self.E @ coords
        val = self.value(coords, u)
        alpha = 1.0
        for it in range(cfg.max_inner):
            g = self.grad(coords, u)
            gt = float(g[nneg:] @ wp)
            gv = g[:nneg]
            res = _residual(t, gt, gv)
            if val > ceiling:
                return t, vm, val, res, it, "rejected", np.inf
            if res <= cfg.inner_tol:
                return t, vm, val, res, it, None, 0.0
            if t > cfg.t_cap or val > 1e12:
                return t, vm, val, res, it, "unbounded", np.inf
            if t <= 1e-12 and gt <= 0.0 and np.linalg.norm(gv) <= cfg.inner_tol:
                return 0.0, vm, val, res, it, "collapsed", np.inf

            stepped = False
            s = self.newton_step(wp, u, gt, gv, res)
            if s is not None:
                st, sv, half_decrement = s
                if res <= res_cap and half_decrement <= value_bound:
                    return t, vm, val, res, it, None, half_decrement
                for k in range(cfg.max_backtracks):
                    damp = cfg.backtrack_shrink ** k
                    t_try = max(t + damp * st, 0.0)
                    vm_try = vm + damp * sv
                    c_try = self.embed(t_try, wp, vm_try)
                    u_try = self.E @ c_try
                    g_try = self.grad(c_try, u_try)
                    res_try = _residual(
                        t_try, float(g_try[nneg:] @ wp), g_try[:nneg])
                    if res_try < res:
                        t, vm, coords, u = t_try, vm_try, c_try, u_try
                        val = self.value(coords, u)
                        stepped = True
                        break
            if not stepped:
                dt = gt
                dv = gv / self.abs_lam[:nneg]
                for k in range(cfg.max_backtracks):
                    t_try = max(t + alpha * dt, 0.0)
                    vm_try = vm + alpha * dv
                    pred = gt * (t_try - t) + float(gv @ (vm_try - vm))
                    c_try = self.embed(t_try, wp, vm_try)
                    u_try = self.E @ c_try
                    val_try = self.value(c_try, u_try)
                    if val_try >= val + cfg.armijo * pred and pred >= 0.0:
                        t, vm, coords, u, val = t_try, vm_try, c_try, u_try, val_try
                        alpha = min(alpha * 1.5, 4.0)
                        stepped = True
                        break
                    alpha *= cfg.backtrack_shrink
                if not stepped:
                    raise RuntimeError(f"oracle ascent stalled at {res:.3e}")
        raise RuntimeError("oracle ascent exceeded its iteration cap")

    def newton_step(self, wp, u, gt, gv, res):
        nneg = self.nneg
        d_site = self.model.df(u)
        if self.rho > 0:
            d_site = d_site + self.rho * self.w

        def neg_hess(svec):
            hc = self.hess_mv(d_site, self.embed(svec[0], wp, svec[1:]))
            out = np.empty(svec.size)
            out[0] = hc[nneg:] @ wp
            out[1:] = hc[:nneg]
            return -out

        r = np.concatenate(([gt], gv))
        precond = np.concatenate(([1.0], self.abs_lam[:nneg]))
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
        sr = float(s @ r)
        if sr <= 0.0:
            return None
        return float(s[0]), s[1:], 0.5 * sr


def _residual(t, gt, gv):
    along_t = abs(gt) if t > 0.0 else max(gt, 0.0)
    return max(along_t, float(np.linalg.norm(gv)))
