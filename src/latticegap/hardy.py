"""Hardy weight 1/(|x|^2 + 1), the best box Hardy constant, and the
admissible coupling range.

Two constants control how strong a Hardy perturbation the variational
structure tolerates: kappa, the smallest constant with
sum w |u|^2 <= kappa * dirichlet_energy(u) on the box, and rho_plus, the
largest M with (A u, u)_2 >= M * dirichlet_energy(u) on X^+.  Couplings up
to min(rho_plus, 1) / kappa keep the positive part of the quadratic form
coercive.  Both constants are computed per box; no infinite-lattice value
is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import InvalidInputError, NumericalError
from .lattice import BoxDomain, LatticeField, dirichlet_energy
from .spectral import SpectralSplit, laplacian_matrix

_DENSE_PENCIL_LIMIT = 1200


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


def weighted_mass(u: LatticeField, rho: float,
                  weight: HardyWeight = EUCLIDEAN_WEIGHT) -> float:
    """rho * sum_x w(x) u(x)^2."""
    if not rho >= 0:
        raise InvalidInputError(f"rho must be >= 0, got {rho}")
    return float(rho * np.sum(weight.on_box(u.box) * u.values ** 2))


@dataclass(frozen=True)
class HardyConstant:
    kappa: float
    witness: LatticeField


def best_hardy_constant(box: BoxDomain,
                        weight: HardyWeight = EUCLIDEAN_WEIGHT) -> HardyConstant:
    """Best constant of  sum w |u|^2 <= kappa * dirichlet_energy(u)  on the box.

    kappa is the largest generalized eigenvalue of (W, L) with W the diagonal
    weight and L the Dirichlet Laplacian; small boxes use a dense pencil
    solve, large ones Lanczos iteration on W^(1/2) L^(-1) W^(1/2).
    """
    if box.dimension < 3:
        raise InvalidInputError("Hardy requires N >= 3")
    w = weight.on_box(box)
    lap = laplacian_matrix(box)
    if box.site_count <= _DENSE_PENCIL_LIMIT:
        vals, vecs = sla.eigh(np.diag(w), lap.toarray())
        kappa = float(vals[-1])
        vec = vecs[:, -1]
    else:
        sqrt_w = np.sqrt(w)
        lu = spla.splu(lap.tocsc())
        op = spla.LinearOperator(
            (box.site_count, box.site_count),
            matvec=lambda z: sqrt_w * lu.solve(sqrt_w * z))
        v0 = sqrt_w / np.linalg.norm(sqrt_w)
        vals, zs = spla.eigsh(op, k=1, which="LA", v0=v0, tol=0,
                              maxiter=10000, ncv=min(box.site_count, 60))
        kappa = float(vals[0])
        vec = lu.solve(sqrt_w * zs[:, 0])
    vec = vec / np.linalg.norm(vec)
    witness = LatticeField(box, vec)
    ratio = float(np.sum(w * vec ** 2)) / dirichlet_energy(witness)
    if abs(ratio - kappa) > 1e-9 * max(1.0, kappa):
        raise NumericalError(
            f"Hardy witness not tight: ratio {ratio!r} vs kappa {kappa!r}")
    return HardyConstant(kappa=kappa, witness=witness)


@dataclass(frozen=True)
class RhoPlusConstant:
    value: float
    witness: LatticeField


def _positive_pencil(split: SpectralSplit):
    basis = split.plus_vectors
    gram = basis.T @ (laplacian_matrix(split.box) @ basis)
    gram = 0.5 * (gram + gram.T)
    return split.plus_eigenvalues, gram, basis


def rho_plus(split: SpectralSplit) -> RhoPlusConstant:
    """Largest M with (A u, u)_2 >= M * dirichlet_energy(u) for all u in X^+.

    Computed as the smallest eigenvalue of the pencil (diag(lambda^+), B^T L B)
    on the positive eigenbasis B.
    """
    lam, gram, basis = _positive_pencil(split)
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
    value = float(vals[0])
    vec = basis @ vecs[:, 0]
    vec = vec / np.linalg.norm(vec)
    witness = LatticeField(split.box, vec)
    quotient = float(vec @ (split.operator @ vec)) / dirichlet_energy(witness)
    if abs(quotient - value) > 1e-9 * max(1.0, abs(value)):
        raise NumericalError(
            f"rho_plus witness not tight: quotient {quotient!r} vs value {value!r}")
    return RhoPlusConstant(value=value, witness=witness)


def rho_plus_descent(split: SpectralSplit, n_starts: int = 10, seed: int = 0,
                     max_iter: int = 20000, tol: float = 1e-14) -> float:
    """Independent cross-check of rho_plus: minimize the Rayleigh quotient
    (A u, u)_2 / dirichlet_energy(u) over X^+ by projected gradient descent
    with Barzilai-Borwein steps, from several random starts."""
    lam, gram, _ = _positive_pencil(split)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n_starts):
        c = rng.standard_normal(lam.size)
        c /= np.linalg.norm(c)
        gc = gram @ c
        denom = float(c @ gc)
        q = float(c @ (lam * c)) / denom
        grad = 2.0 * (lam * c - q * gc) / denom
        step = 1.0 / max(np.abs(grad).max(), 1e-12)
        prev_c, prev_grad = None, None
        for _ in range(max_iter):
            if prev_grad is not None:
                dc = c - prev_c
                dg = grad - prev_grad
                denom_bb = float(dc @ dg)
                if abs(denom_bb) > 1e-300:
                    step = abs(float(dc @ dc) / denom_bb)
            prev_c, prev_grad, q_old = c, grad, q
            c = c - step * grad
            norm = np.linalg.norm(c)
            if norm == 0.0:
                c = prev_c
                break
            c = c / norm
            gc = gram @ c
            denom = float(c @ gc)
            q = float(c @ (lam * c)) / denom
            grad = 2.0 * (lam * c - q * gc) / denom
            if abs(q_old - q) <= tol * max(1.0, abs(q)):
                break
        best = min(best, q)
    return float(best)


@dataclass(frozen=True)
class InequalityConstants:
    """Box constants controlling the admissible Hardy coupling.

    rho_tilde_plus = min(rho_plus, 1) and rho_max = rho_tilde_plus / kappa
    are derived when omitted; explicitly supplied values must match exactly.
    """

    dimension: int
    radius: int
    kappa: float
    rho_plus: float
    rho_tilde_plus: float | None = None
    rho_max: float | None = None
    metric: str = "euclidean"

    def __post_init__(self):
        for name in ("kappa", "rho_plus"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be > 0, got {getattr(self, name)}")
        tilde = min(self.rho_plus, 1.0)
        if self.rho_tilde_plus is None:
            object.__setattr__(self, "rho_tilde_plus", tilde)
        elif self.rho_tilde_plus != tilde:
            raise InvalidInputError("rho_tilde_plus must equal min(rho_plus, 1)")
        if self.rho_max is None:
            object.__setattr__(self, "rho_max", self.rho_tilde_plus / self.kappa)
        elif self.rho_max != self.rho_tilde_plus / self.kappa:
            raise InvalidInputError("rho_max must equal rho_tilde_plus / kappa")

    def to_dict(self) -> dict:
        return {"N": self.dimension, "R": self.radius, "kappa": self.kappa,
                "rho_plus": self.rho_plus, "rho_tilde_plus": self.rho_tilde_plus,
                "rho_max": self.rho_max, "metric": self.metric}


def compute_constants(split: SpectralSplit,
                      weight: HardyWeight = EUCLIDEAN_WEIGHT) -> InequalityConstants:
    """kappa and rho_plus on the split's box, bundled with the derived bound."""
    return InequalityConstants(
        dimension=split.box.dimension, radius=split.box.radius,
        kappa=best_hardy_constant(split.box, weight).kappa,
        rho_plus=rho_plus(split).value, metric=weight.metric)
