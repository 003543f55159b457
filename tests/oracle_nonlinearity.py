"""Point evaluation of a nonlinearity and a quadrature check of its primitive.

The package evaluates f, F and df only on value arrays; these helpers take
one value, or compare F with Simpson's rule on f."""

import numpy as np

from latticegap.errors import InvalidInputError


def evaluate(model, u):
    """Point evaluation (f, F, df) at one value."""
    if not np.isfinite(u):
        raise InvalidInputError(f"non-finite input value u = {u}")
    arg = np.array([float(u)])
    return float(model.f(arg)[0]), float(model.F(arg)[0]), float(model.df(arg)[0])


def simpson_primitive(f, u, panels=10000):
    """Composite-Simpson quadrature of f from 0 to each entry of u."""
    u = np.asarray(u, dtype=float)
    flat = np.atleast_1d(u).ravel()
    out = np.empty_like(flat)
    nodes = np.linspace(0.0, 1.0, 2 * panels + 1)
    weights = np.ones(nodes.size)
    weights[1:-1:2] = 4.0
    weights[2:-2:2] = 2.0
    for i, ui in enumerate(flat):
        ts = nodes * ui
        out[i] = (ui / (2 * panels)) / 3.0 * float(weights @ f(ts))
    return out.reshape(np.shape(u)) if np.ndim(u) else float(out[0])


def check_primitive(model, us, panels=10000):
    """Max |F(u) - Simpson integral of f from 0 to u| over the samples."""
    us = np.asarray(us, dtype=float)
    return float(np.max(np.abs(model.F(us) - simpson_primitive(model.f, us, panels))))
