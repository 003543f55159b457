"""Hardy weight 1/(|x|^2 + 1), the best box Hardy constant, and the
admissible coupling range.

Two constants control how strong a Hardy perturbation the variational
structure tolerates: kappa, the smallest constant with
sum w |u|^2 <= kappa * dirichlet_energy(u) on the box, and rho_plus, the
largest M with (A u, u)_2 >= M * dirichlet_energy(u) on X^+.  Couplings up
to min(rho_plus, 1) / kappa keep the positive part of the quadratic form
coercive.  Both constants are computed per box; no infinite-lattice value
is claimed.  Both are generalized eigenproblems, solved one reflection-
parity sector at a time (`spectral.parity_sectors`): kappa on the all-even
sector, rho_plus on each sector of the split that holds X^+ eigenvectors,
as its `spectral.SectorStream` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import InvalidInputError, NumericalError
from .lattice import BoxDomain, LatticeField, dirichlet_energy
from .spectral import (SectorStream, check_dense_budget, laplacian_matrix,
                       parity_sectors)


@dataclass(frozen=True)
class HardyWeight:
    """Evaluation rule w(x) = 1 / (|x|^2 + 1).

    The squared distance defaults to the Euclidean sum of squared
    coordinates; "graph" uses the l1 lattice distance instead.
    """

    metric: str = "euclidean"

    def __post_init__(self):
        if self.metric not in ("euclidean", "graph"):
            raise InvalidInputError(
                f'metric must be "euclidean" or "graph", got {self.metric!r}')

    def on_box(self, box: BoxDomain) -> np.ndarray:
        if self.metric == "euclidean":
            sq = box.squared_norms
        else:
            sq = box.graph_norms ** 2
        return 1.0 / (sq + 1.0)


EUCLIDEAN_WEIGHT = HardyWeight("euclidean")
GRAPH_WEIGHT = HardyWeight("graph")


def check_coupling(rho: float) -> None:
    """Refuse a Hardy coupling outside [0, inf), NaN included: the one
    owner of the coupling's range."""
    if not 0 <= rho < np.inf:
        raise InvalidInputError(f"rho must be >= 0 and finite, got {rho}")


def weighted_mass(u: LatticeField, rho: float,
                  weight: HardyWeight = EUCLIDEAN_WEIGHT) -> float:
    """rho * sum_x w(x) u(x)^2."""
    check_coupling(rho)
    return float(rho * np.sum(weight.on_box(u.box) * u.values ** 2))


def check_hardy_dimension(dimension: int) -> None:
    """Refuse a lattice without the Hardy inequality: N < 3."""
    if dimension < 3:
        raise InvalidInputError(
            f"the Hardy terms need dimension >= 3 (N >= 3), got {dimension}")


@dataclass(frozen=True)
class HardyConstant:
    kappa: float
    witness: LatticeField


def best_hardy_constant(box: BoxDomain,
                        weight: HardyWeight = EUCLIDEAN_WEIGHT) -> HardyConstant:
    """Best constant of  sum w |u|^2 <= kappa * dirichlet_energy(u)  on the box.

    kappa is the largest generalized eigenvalue of (W, L), W the diagonal
    weight and L the Dirichlet Laplacian: the top eigenvalue of the entrywise
    positive W^(1/2) L^(-1) W^(1/2).  By Perron-Frobenius its eigenvector is
    simple and positive, so even under every reflection x_i -> -x_i, and the
    dense pencil is solved on the all-even sector: (R + 1)^N sites.
    """
    check_hardy_dimension(box.dimension)
    even = parity_sectors(box, tuple(range(box.dimension)))[0]
    check_dense_budget("the even sector", even.size)
    w = weight.on_box(box)
    q = even.basis(box.site_count)
    # Fortran order lets LAPACK work in the two matrices instead of copies
    vals, vecs = sla.eigh((q.T @ sp.diags(w) @ q).toarray(order="F"),
                          (q.T @ laplacian_matrix(box) @ q).toarray(order="F"),
                          overwrite_a=True, overwrite_b=True)
    kappa = float(vals[-1])
    vec = even.lift(vecs[:, -1:], box.site_count)[:, 0]
    return HardyConstant(kappa, _tight_witness(
        "Hardy", box, vec, lambda vec: np.sum(w * vec ** 2), kappa))


@dataclass(frozen=True)
class RhoPlusConstant:
    value: float
    witness: LatticeField


def rho_plus(split: SectorStream) -> RhoPlusConstant:
    """Largest M with (A u, u)_2 >= M * dirichlet_energy(u) for all u in X^+.

    Computed as the smallest eigenvalue of the pencil (diag(lambda^+), B^T L B)
    on the positive eigenbasis B.  L commutes with the reflections, so
    B^T L B has no entries between columns of different parity: the X^+
    columns B_s = Q_s C_s of each sector s, as `split.plus_sectors()` yields
    them, get the pencil (diag(lambda_s), C_s^T (Q_s^T L Q_s) C_s), and the
    first smallest value over them wins.  The reduction keeps only the best
    value and its witness, so a `SectorStream` is read one sector at a time;
    a `SpectralSplit` is one that has read them all.
    """
    n, lap = split.box.site_count, laplacian_matrix(split.box)
    # map lets go of each sector before the next one is read, and min keeps
    # the first smallest value
    best = min(map(lambda part: _pencil_minimum(lap, n, *part),
                   split.plus_sectors()), key=lambda pair: pair[0], default=None)
    if best is None:
        raise InvalidInputError(
            "rho_plus needs a nonempty X^+, but the operator has no positive "
            "eigenvalue on this box")
    value, vec = best
    return RhoPlusConstant(value, _tight_witness(
        "rho_plus", split.box, vec, lambda vec: vec @ (split.operator @ vec), value))


def _tight_witness(name: str, box: BoxDomain, vec, numerator, value: float):
    """The field of the unit vector along `vec`; its Rayleigh quotient
    numerator / dirichlet_energy must be `value` within 1e-9 max(1, |value|)."""
    witness = LatticeField(box, vec / np.linalg.norm(vec))
    quotient = float(numerator(witness.values)) / dirichlet_energy(witness)
    if abs(quotient - value) > 1e-9 * max(1.0, abs(value)):
        raise NumericalError(
            f"{name} witness not tight: quotient {quotient!r} vs value {value!r}")
    return witness


def _pencil_minimum(lap: sp.spmatrix, n: int, sector, lam: np.ndarray,
                    coords: np.ndarray) -> tuple[float, np.ndarray]:
    """The smallest eigenvalue of one sector's `rho_plus` pencil and its
    eigenvector in site space."""
    q = sector.basis(n)
    gram = coords.T @ ((q.T @ lap @ q) @ coords)
    gram = 0.5 * (gram + gram.T)
    # cond(G) is a full SVD, so it is computed only for the error messages
    try:
        vals, vecs = sla.eigh(np.diag(lam), gram)
    except sla.LinAlgError as exc:
        raise NumericalError(
            f"reduced pencil solve failed (cond(G) = {np.linalg.cond(gram):.3e}): "
            f"{exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise NumericalError(
            f"reduced pencil numerically singular, cond(G) = {np.linalg.cond(gram):.3e}")
    return float(vals[0]), sector.lift(coords @ vecs[:, :1], n)[:, 0]


@dataclass(frozen=True)
class InequalityConstants:
    """Box constants controlling the admissible Hardy coupling.

    kappa and rho_plus are what the pencils measure; rho_tilde_plus =
    min(rho_plus, 1) and rho_max = rho_tilde_plus / kappa derive from them.
    kappa is the Hardy constant of `weight`, so the constants carry the
    weight, and the solves that take them use it.  They record the box, but
    not the potential, so `check_fits` cannot tell constants of another
    potential on the same box.
    """

    dimension: int
    radius: int
    kappa: float
    rho_plus: float
    weight: HardyWeight = EUCLIDEAN_WEIGHT

    def __post_init__(self):
        for name in ("kappa", "rho_plus"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def rho_tilde_plus(self) -> float:
        return min(self.rho_plus, 1.0)

    @property
    def rho_max(self) -> float:
        return self.rho_tilde_plus / self.kappa

    def check_fits(self, box: BoxDomain) -> None:
        """Refuse a box other than the recorded one."""
        ours, theirs = (self.dimension, self.radius), (box.dimension, box.radius)
        if ours != theirs:
            raise InvalidInputError(f"constants for (N, R) = {ours} do not fit {theirs}")

    def to_dict(self) -> dict:
        return {"N": self.dimension, "R": self.radius, "kappa": self.kappa,
                "rho_plus": self.rho_plus, "rho_tilde_plus": self.rho_tilde_plus,
                "rho_max": self.rho_max, "metric": self.weight.metric}


def compute_constants(split: SectorStream,
                      weight: HardyWeight = EUCLIDEAN_WEIGHT) -> InequalityConstants:
    """kappa and rho_plus on the split's box, bundled with the derived bounds.

    `split` is a `SpectralSplit` or a `SectorStream` not yet read.  The
    CLI's `constants` stage solves the same pencils in the same order on a
    `SectorStream` of split.npy, and also writes their witnesses."""
    return InequalityConstants(
        dimension=split.box.dimension, radius=split.box.radius,
        kappa=best_hardy_constant(split.box, weight).kappa,
        rho_plus=rho_plus(split).value, weight=weight)
