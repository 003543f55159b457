"""Sampled slab excess: the worst J(t u + v) - J(u) over random slab points.

The solver's `maximality_certificate` bounds this excess in closed form for
t in [0, 3] and every v in X^-, so its bound must dominate what this loop
finds.  The loop draws t uniform in [0, 3) and v = P_- g, g standard normal
in site space, scaled to an equivalent norm uniform in [0, 3 max(||u||, 1)).
It projects each draw with the dense eigenvector matrix and evaluates J
sample by sample in slab eigencoordinates.  Only the site terms of J come
from the package."""

import numpy as np

from latticegap.energy import SiteTerms

from conftest import eigenvector_matrix


def _metric_norm(abs_lam, coords):
    return float(np.sqrt(np.sum(abs_lam * coords ** 2)))


def maximality_certificate(split, model, u, rho, n_samples, seed, tol, weight):
    """(ok, worst excess of J(t u + v) over J(u)) from per-sample products."""
    terms = SiteTerms(split, model, rho, weight)
    cu = split.coords_of(u.values)
    um = cu[split.minus]
    qw = float(np.sum(split.eigenvalues[split.plus] * cu[split.plus] ** 2))

    def value(t, vm, site):
        quad = t * t * qw + float(np.sum(split.eigenvalues[split.minus] * vm ** 2))
        return 0.5 * quad - float(terms.energy(site))

    em = eigenvector_matrix(split)[:, split.minus]
    base = value(1.0, um, u.values)
    v_radius = 3.0 * max(_metric_norm(np.abs(split.eigenvalues), cu), 1.0)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 3.0, n_samples)
    draws = rng.standard_normal((split.size, n_samples))
    radii = rng.uniform(0.0, v_radius, n_samples)
    worst = -np.inf
    for t, g, radius in zip(ts, draws.T, radii):
        dv = em.T @ g
        norm = _metric_norm(-split.eigenvalues[split.minus], dv)
        if norm > 0:
            dv *= radius / norm
        site = t * u.values + em @ dv
        worst = max(worst, value(t, t * um + dv, site) - base)
    return worst <= tol, worst
