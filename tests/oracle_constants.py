"""Reference full-box computations of the two box constants.

`hardy.best_hardy_constant` solves its pencil on the all-even parity sector
and `hardy.rho_plus` solves one pencil per parity sector of X^+.  These are
the full-box versions they replaced: the dense pencil (W, L) and the Lanczos
iteration on W^(1/2) L^(-1) W^(1/2) for kappa, the pencil
(diag(lambda^+), B^T L B) on all of X^+ for rho_plus, and a projected
gradient descent on the same quotient as an independent cross-check.  Only
the weight, the Laplacian and the Dirichlet energy come from the package."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from latticegap.lattice import LatticeField, dirichlet_energy
from latticegap.spectral import laplacian_matrix

from conftest import eigenvector_matrix


def kappa_dense(box, weight):
    """kappa from the dense full-box pencil (W, L)."""
    vals = sla.eigh(np.diag(weight.on_box(box)), laplacian_matrix(box).toarray(),
                    eigvals_only=True)
    return float(vals[-1])


def kappa_lanczos(box, weight):
    """kappa from Lanczos on W^(1/2) L^(-1) W^(1/2)."""
    sqrt_w = np.sqrt(weight.on_box(box))
    lu = spla.splu(laplacian_matrix(box).tocsc())
    op = spla.LinearOperator(
        (box.site_count, box.site_count),
        matvec=lambda z: sqrt_w * lu.solve(sqrt_w * z))
    v0 = sqrt_w / np.linalg.norm(sqrt_w)
    vals = spla.eigsh(op, k=1, which="LA", v0=v0, tol=0, maxiter=10000,
                      ncv=min(box.site_count, 60), return_eigenvectors=False)
    return float(vals[0])


def hardy_ratio(box, weight, vec):
    """sum w v^2 / dirichlet_energy(v)."""
    return float(np.sum(weight.on_box(box) * vec ** 2)) \
        / dirichlet_energy(LatticeField(box, vec))


def positive_pencil(split):
    """(lambda^+, B^T L B) on the whole positive eigenbasis B."""
    basis = eigenvector_matrix(split)[:, split.plus]
    gram = basis.T @ (laplacian_matrix(split.box) @ basis)
    return split.eigenvalues[split.plus], 0.5 * (gram + gram.T)


def rho_plus_full(split):
    """rho_plus from one pencil on all of X^+."""
    lam, gram = positive_pencil(split)
    return float(sla.eigh(np.diag(lam), gram, eigvals_only=True)[0])


def rho_plus_quotient(split, vec):
    """(A v, v)_2 / dirichlet_energy(v)."""
    return float(vec @ (split.operator @ vec)) \
        / dirichlet_energy(LatticeField(split.box, vec))


def rho_plus_descent(split, n_starts=10, seed=0, max_iter=20000, tol=1e-14):
    """Minimize the Rayleigh quotient (A u, u)_2 / dirichlet_energy(u) over
    X^+ by projected gradient descent with Barzilai-Borwein steps, from
    several random starts."""
    lam, gram = positive_pencil(split)
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


def checkerboard_constants(dimension, radius, amplitude):
    """(rho_plus, lambda_1^+) in closed form for the checkerboard of
    amplitude c with the default shift -2N on [-R, R]^N.

    The sign pattern S swaps the DST-I modes j and 2R + 2 - j, whose
    adjacency eigenvalues are +-mu_j, mu_j = sum_i 2 cos(pi j_i / (2R + 2)),
    j in {1..2R+1}^N.  So A = c S - Adj and L = 2N - Adj are 2 x 2
    block-diagonal on these pairs: A has the eigenvalues +-sqrt(mu^2 + c^2),
    and the X^+ vector of a pair has the quotient (A v, v) / (L v, v) =
    (mu^2 + c^2) / (2N sqrt(mu^2 + c^2) + mu^2)."""
    axis = 2.0 * np.cos(np.pi * np.arange(1, 2 * radius + 2) / (2 * radius + 2))
    mu = np.zeros(1)
    for _ in range(dimension):
        mu = np.add.outer(mu, axis).ravel()
    energy = mu ** 2 + amplitude ** 2
    quotients = energy / (2 * dimension * np.sqrt(energy) + mu ** 2)
    return float(np.min(quotients)), float(np.sqrt(np.min(energy)))
