"""The energy functional, its l2 gradient, and Nehari residuals.

With A = -Delta + V split into X^+ (+) X^-, w the Hardy weight and F the
primitive of the nonlinearity,

    J_rho(u) = 1/2 ||u^+||^2 - 1/2 ||u^-||^2 - 1/2 rho sum w u^2 - sum F(u)

where ||.|| is the equivalent norm (|A| u, u)_2.  The Gateaux derivative is
represented in l2 by  A u - rho w u - f(u).  A field belongs to the
Nehari-Pankov set when its gradient vanishes along u itself and along all
of X^-; ground states minimize J_rho there.  One `SiteTerms` is J_rho: it
defines the site-space parts of J_rho, J' and J'' once, and these functions
and the solver take it in place of (split, model, rho, weight); what they
read at a field u, they read from its one `StateRecord`, which derives each
member on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, RhoOutOfRangeError
from .hardy import (EUCLIDEAN_WEIGHT, HardyWeight, InequalityConstants,
                    check_coupling, weighted_mass)
from .lattice import LatticeField
from .nonlinearity import Nonlinearity
from .spectral import SpectralSplit, check_on_box, coords_inner


@dataclass(frozen=True)
class EnergyReport:
    """J_rho(u) with its three contributions (value = quadratic - hardy - nonlinear)."""

    value: float
    quadratic: float
    hardy: float
    nonlinear: float


@dataclass(frozen=True)
class NehariResidual:
    """Sizes of the constraint violations defining the Nehari-Pankov set;
    `to_dict` names them in every artifact that records them."""

    along_u: float      # <J'(u), u>
    along_minus: float  # || P J'(u) ||_2, X^- component of the gradient
    full: float         # || J'(u) ||_2

    def to_dict(self) -> dict:
        return {"residual_full": self.full, "residual_along_u": self.along_u,
                "residual_along_minus": self.along_minus}


class SiteTerms:
    """Site-space terms of J_rho, J' and J'' on site-value arrays, with the
    split they act on.

    A rho that `hardy.check_coupling` refuses (not >= 0, NaN included) is
    refused here, when the functional is built; `solver.solve_ground_state`
    builds its one `SiteTerms` first, so it refuses such a rho before any work.
    With w the Hardy weight (evaluated once, for every rho; at rho = 0 each
    Hardy term is a signed zero that leaves the sum it joins unchanged):
    energy = nonlinear + hardy = sum F + 1/2 rho sum w u^2,
    force = f + rho w u, hess_diag = df + rho w, and
    gradient = A u - f - rho w u, the l2 representative of J'.
    The sums run over the last axis, so a (k, n) array of k states gives
    k values.
    """

    def __init__(self, split: SpectralSplit, model: Nonlinearity, rho: float,
                 weight: HardyWeight = EUCLIDEAN_WEIGHT):
        check_coupling(rho)
        self.split = split
        self.operator = split.operator
        self.model = model
        self.rho = float(rho)
        self.w = weight.on_box(split.box)

    def nonlinear(self, u: np.ndarray):
        return np.sum(self.model.F(u), axis=-1)

    def hardy(self, u: np.ndarray):
        return 0.5 * self.rho * np.sum(self.w * u * u, axis=-1)

    def energy(self, u: np.ndarray):
        return self.nonlinear(u) + self.hardy(u)

    def force(self, u: np.ndarray) -> np.ndarray:
        return self.model.f(u) + self.rho * self.w * u

    def hess_diag(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.model.df(u) + self.rho * self.w, dtype=float)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.operator @ u - self.model.f(u) - self.rho * self.w * u


@dataclass(frozen=True, eq=False)
class StateRecord(LatticeField):
    """A field u under one `SiteTerms`, with E^T u, r = J'(u) and E^T r, each
    derived on first read (one `coords_of` or one J', or the r handed over)."""

    terms: SiteTerms

    coords = cached_property(lambda self: self.terms.split.coords_of(self.values))
    gradient = cached_property(lambda self: self.terms.gradient(self.values))
    gradient_coords = cached_property(lambda self: self.terms.split.coords_of(self.gradient))


def state_record(terms: SiteTerms, u: LatticeField,
                 r: np.ndarray | None = None) -> StateRecord:
    """u itself when it is a record under `terms`, else its record, holding
    r as J'(u) when the caller has it; the one place that recognises a
    record, so every reader of a state derives what it reads once."""
    if isinstance(u, StateRecord) and u.terms is terms:
        return u
    check_on_box(terms.split, u)
    state = StateRecord(u.box, u.values, terms)
    if r is not None:
        state.__dict__["gradient"] = r  # where `cached_property` keeps a value read
    return state


def evaluate_energy(terms: SiteTerms, u: LatticeField) -> EnergyReport:
    """J_rho(u) from the E^T u of u's record: of a plain field, one
    `coords_of` and no J'."""
    coords = state_record(terms, u).coords
    quadratic = 0.5 * float(np.sum(terms.split.eigenvalues * coords ** 2))
    hardy = float(terms.hardy(u.values))
    nonlinear = float(terms.nonlinear(u.values))
    return EnergyReport(value=quadratic - hardy - nonlinear,
                        quadratic=quadratic, hardy=hardy, nonlinear=nonlinear)


def gradient(terms: SiteTerms, u: LatticeField) -> LatticeField:
    """l2 representative of the Gateaux derivative: A u - rho w u - f(u)."""
    check_on_box(terms.split, u)
    return LatticeField(terms.split.box, terms.gradient(u.values))


def nehari_residual(terms: SiteTerms, u: LatticeField) -> NehariResidual:
    """The Nehari-Pankov residuals of u from the r = J'(u) and E^T r of its
    record: of a plain field, one J' and one `coords_of`."""
    state = state_record(terms, u)
    return NehariResidual(
        along_u=float(state.gradient @ state.values),
        along_minus=float(np.linalg.norm(state.gradient_coords[terms.split.minus])),
        full=float(np.linalg.norm(state.gradient)))


def rho_norm_plus(split: SpectralSplit, u_plus: LatticeField, rho: float,
                  constants: InequalityConstants | None = None) -> float:
    """Squared rho-modified norm  ||u||^2 - rho sum w u^2  on X^+.

    w is the weight of the box constants, the euclidean one without them.
    The input must lie in X^+ (projection residual below 1e-10).  When the
    box constants are supplied they must fit the split's box
    (`InequalityConstants.check_fits`), and the admissibility bound
    rho < rho_plus/kappa is enforced; the norm is then positive definite.
    """
    check_on_box(split, u_plus)
    if constants is not None:
        constants.check_fits(split.box)
    hardy = weighted_mass(u_plus, rho,
                          EUCLIDEAN_WEIGHT if constants is None else constants.weight)
    coords = split.coords_of(u_plus.values)
    minus_part = float(np.linalg.norm(coords[split.minus]))
    if minus_part > 1e-10 * (1.0 + float(np.linalg.norm(u_plus.values))):
        raise InvalidInputError(
            f"input is not in X^+ (projection residual {minus_part:.3e})")
    if constants is not None and rho >= constants.rho_plus / constants.kappa:
        raise RhoOutOfRangeError(
            f"rho = {rho} >= rho_plus/kappa = {constants.rho_plus / constants.kappa}")
    return coords_inner(split, coords, coords) - hardy
