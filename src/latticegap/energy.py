"""The energy functional, its l2 gradient, and Nehari residuals.

With A = -Delta + V split into X^+ (+) X^-, w the Hardy weight and F the
primitive of the nonlinearity,

    J_rho(u) = 1/2 ||u^+||^2 - 1/2 ||u^-||^2 - 1/2 rho sum w u^2 - sum F(x, u)

where ||.|| is the equivalent norm (|A| u, u)_2.  The Gateaux derivative is
represented in l2 by  A u - rho w u - f(., u).  A field belongs to the
Nehari-Pankov set when its gradient vanishes along u itself and along all
of X^-; ground states minimize J_rho there.  `SiteTerms` defines the
site-space parts of J_rho, J' and J'' once, for these functions and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RhoOutOfRangeError
from .hardy import EUCLIDEAN_WEIGHT, HardyWeight, InequalityConstants, weighted_mass
from .lattice import LatticeField
from .nonlinearity import Nonlinearity
from .spectral import SpectralSplit, split_inner


@dataclass(frozen=True)
class EnergyReport:
    """J_rho(u) with its three contributions (value = quadratic - hardy - nonlinear)."""

    value: float
    quadratic: float
    hardy: float
    nonlinear: float


@dataclass(frozen=True)
class NehariResidual:
    """Sizes of the constraint violations defining the Nehari-Pankov set."""

    along_u: float      # <J'(u), u>
    along_minus: float  # || P J'(u) ||_2, X^- component of the gradient
    full: float         # || J'(u) ||_2


class SiteTerms:
    """Site-space terms of J_rho, J' and J'' on site-value arrays.

    With w the Hardy weight (evaluated once, and only for rho > 0):
    energy = nonlinear + hardy = sum F + 1/2 rho sum w u^2,
    force = f + rho w u, hess_diag = df + rho w, and
    gradient = A u - f - rho w u, the l2 representative of J'.
    """

    def __init__(self, split: SpectralSplit, model: Nonlinearity, rho: float,
                 weight: HardyWeight = EUCLIDEAN_WEIGHT):
        self.operator = split.operator
        self.sites = split.box.sites
        self.model = model
        self.rho = float(rho)
        self.w = weight.on_box(split.box) if rho > 0 else None

    def nonlinear(self, u: np.ndarray) -> float:
        return float(np.sum(self.model.F(u, self.sites)))

    def hardy(self, u: np.ndarray) -> float:
        if self.rho > 0:
            return 0.5 * self.rho * float(np.sum(self.w * u * u))
        return 0.0

    def energy(self, u: np.ndarray) -> float:
        return self.nonlinear(u) + self.hardy(u)

    def force(self, u: np.ndarray) -> np.ndarray:
        r = self.model.f(u, self.sites)
        if self.rho > 0:
            r = r + self.rho * self.w * u
        return r

    def hess_diag(self, u: np.ndarray) -> np.ndarray:
        d = self.model.df(u, self.sites)
        if self.rho > 0:
            d = d + self.rho * self.w
        return np.asarray(d, dtype=float)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        r = self.operator @ u - self.model.f(u, self.sites)
        if self.rho > 0:
            r = r - self.rho * self.w * u
        return r


def _check(split: SpectralSplit, u: LatticeField, rho: float):
    if u.box != split.box:
        raise InvalidInputError("field box does not match the split's box")
    if rho < 0:
        raise InvalidInputError(f"rho must be >= 0, got {rho}")


def evaluate_energy(split: SpectralSplit, model: Nonlinearity, u: LatticeField,
                    rho: float, weight: HardyWeight = EUCLIDEAN_WEIGHT) -> EnergyReport:
    _check(split, u, rho)
    terms = SiteTerms(split, model, rho, weight)
    coords = split.to_coords(u)
    quadratic = 0.5 * float(np.sum(split.eigenvalues * coords ** 2))
    hardy = terms.hardy(u.values)
    nonlinear = terms.nonlinear(u.values)
    return EnergyReport(value=quadratic - hardy - nonlinear,
                        quadratic=quadratic, hardy=hardy, nonlinear=nonlinear)


def gradient(split: SpectralSplit, model: Nonlinearity, u: LatticeField,
             rho: float, weight: HardyWeight = EUCLIDEAN_WEIGHT) -> LatticeField:
    """l2 representative of the Gateaux derivative: A u - rho w u - f(., u)."""
    _check(split, u, rho)
    return LatticeField(split.box, SiteTerms(split, model, rho, weight).gradient(u.values))


def nehari_residual(split: SpectralSplit, model: Nonlinearity, u: LatticeField,
                    rho: float, weight: HardyWeight = EUCLIDEAN_WEIGHT) -> NehariResidual:
    _check(split, u, rho)
    grad = gradient(split, model, u, rho, weight)
    coords = split.to_coords(grad)
    return NehariResidual(
        along_u=float(grad.values @ u.values),
        along_minus=float(np.linalg.norm(coords[split.minus])),
        full=float(np.linalg.norm(grad.values)))


def rho_norm_plus(split: SpectralSplit, u_plus: LatticeField, rho: float,
                  constants: InequalityConstants | None = None,
                  weight: HardyWeight = EUCLIDEAN_WEIGHT) -> float:
    """Squared rho-modified norm  ||u||^2 - rho sum w u^2  on X^+.

    The input must lie in X^+ (projection residual below 1e-10).  When the
    box constants are supplied the admissibility bound rho < rho_plus/kappa
    is enforced; the norm is then positive definite.
    """
    _check(split, u_plus, rho)
    coords = split.to_coords(u_plus)
    minus_part = float(np.linalg.norm(coords[split.minus]))
    if minus_part > 1e-10 * (1.0 + float(np.linalg.norm(u_plus.values))):
        raise InvalidInputError(
            f"input is not in X^+ (projection residual {minus_part:.3e})")
    if constants is not None and rho >= constants.rho_plus / constants.kappa:
        raise RhoOutOfRangeError(
            f"rho = {rho} >= rho_plus/kappa = {constants.rho_plus / constants.kappa}")
    return split_inner(split, u_plus, u_plus) - weighted_mass(u_plus, rho, weight)
