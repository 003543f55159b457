"""Point evaluation of a nonlinearity and a quadrature check of its primitive.

The package evaluates f, F and df only on site-value arrays; these helpers
take one site and one value, or compare F with Simpson's rule on f."""

import numpy as np

from latticegap.errors import InvalidInputError
from latticegap.nonlinearity import simpson_primitive


def evaluate(model, x, u):
    """Point evaluation (f, F, df) at one site and value."""
    if not np.isfinite(u):
        raise InvalidInputError(f"non-finite input value u = {u}")
    sites = None if x is None else np.asarray(x, dtype=int).reshape(1, -1)
    arg = np.array([float(u)])
    return (float(model.f(arg, sites)[0]), float(model.F(arg, sites)[0]),
            float(model.df(arg, sites)[0]))


def check_primitive(model, us, panels=10000):
    """Max |F(u) - Simpson integral of f from 0 to u| over the samples."""
    us = np.asarray(us, dtype=float)
    return float(np.max(np.abs(model.F(us) - simpson_primitive(model.f, us, panels))))
