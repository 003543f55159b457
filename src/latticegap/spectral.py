"""Periodic Schrodinger operators -Delta + V: assembly, gap certification,
and the positive/negative spectral splitting.

The infinite-lattice spectrum is certified through Floquet-Bloch reduction:
for each quasimomentum k the operator restricts to a |cell| x |cell|
Hermitian matrix with hopping phases exp(i k_i T_i) across the cell
boundary, and the union of its eigenvalue bands over k is the spectrum.
The matrices of the whole k-grid are built as one (n_k, cell, cell) stack
and solved by one batched `eigvalsh`.
The box operator is then fully diagonalized (dense, desk scale) and split
at 0 into X^- (negative eigenvalues) and X^+ (positive ones).  Dirichlet
truncation can park boundary eigenvalues inside the infinite-lattice gap;
these are reported as "gap intrusions", never silently dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (InvalidInputError, NoSpectralGapError, NumericalError,
                     ZeroEigenvalueError)
from .jsonio import atomic_open
from .lattice import BoxDomain, LatticeField

DENSE_EIG_BUDGET = 5000  # refuse dense full decompositions above this size
RESIDUAL_BLOCK = 256     # eigenvector columns per block of the residual check


@dataclass(frozen=True)
class PeriodicPotential:
    """T-periodic potential given by its values on the fundamental cell.

    Evaluation rule: V(x) = cell[x mod T], componentwise modulus.
    """

    period: tuple[int, ...]
    cell: np.ndarray

    def __post_init__(self):
        period = tuple(int(t) for t in self.period)
        if any(t < 1 for t in period):
            raise InvalidInputError(f"period entries must be >= 1, got {period}")
        cell = np.asarray(self.cell, dtype=float)
        if cell.shape != period:
            raise InvalidInputError(
                f"cell has shape {cell.shape}, expected {period}")
        if not np.all(np.isfinite(cell)):
            raise InvalidInputError("potential values must be finite")
        object.__setattr__(self, "period", period)
        cell = cell.copy()
        cell.flags.writeable = False
        object.__setattr__(self, "cell", cell)

    @property
    def dimension(self) -> int:
        return len(self.period)

    @property
    def cell_size(self) -> int:
        return int(np.prod(self.period))

    def values_at(self, sites: np.ndarray) -> np.ndarray:
        sites = np.asarray(sites, dtype=int)
        reduced = np.mod(sites, np.array(self.period))
        return self.cell[tuple(reduced.T)]

    def on_box(self, box: BoxDomain) -> np.ndarray:
        if box.dimension != self.dimension:
            raise InvalidInputError(
                f"potential dimension {self.dimension} != box dimension {box.dimension}")
        return self.values_at(box.sites)


def checkerboard_potential(dimension: int, amplitude: float = 1.0,
                           shift: float | None = None) -> PeriodicPotential:
    """Sign-alternating potential c*(-1)^(x_1+...+x_N) + shift, period 2.

    The default shift -2N cancels the Laplacian diagonal, which places the
    spectrum symmetrically around 0 with gap (-|c|, |c|).
    """
    if shift is None:
        shift = -2.0 * dimension
    period = (2,) * dimension
    idx = np.indices(period).reshape(dimension, -1).T
    cell = (amplitude * (-1.0) ** idx.sum(axis=1) + shift).reshape(period)
    return PeriodicPotential(period, cell)


def constant_potential(dimension: int, value: float) -> PeriodicPotential:
    return PeriodicPotential((1,) * dimension, np.full((1,) * dimension, float(value)))


def laplacian_matrix(box: BoxDomain) -> sp.csr_matrix:
    """Sparse matrix of -Delta with Dirichlet zero extension (positive definite)."""
    side, n = box.side, box.dimension
    one = sp.diags([[-1.0] * (side - 1), [2.0] * side, [-1.0] * (side - 1)],
                   [-1, 0, 1], format="csr")
    lap = None
    for j in range(n):
        term = sp.identity(side ** j, format="csr")
        term = sp.kron(term, one, format="csr")
        term = sp.kron(term, sp.identity(side ** (n - 1 - j), format="csr"), format="csr")
        lap = term if lap is None else lap + term
    return lap.tocsr()


def assemble_operator(box: BoxDomain, potential: PeriodicPotential) -> sp.csr_matrix:
    """Sparse symmetric matrix of u -> -Delta u + V u with Dirichlet zero extension.

    Diagonal entries are 2N + V(x); off-diagonal entries are exactly -1 for
    neighbor pairs inside the box.
    """
    if box.dimension != potential.dimension:
        raise InvalidInputError(
            f"potential dimension {potential.dimension} != box dimension {box.dimension}")
    return (laplacian_matrix(box) + sp.diags(potential.on_box(box))).tocsr()


def assemble_torus_operator(potential: PeriodicPotential, cells_per_axis: int) -> sp.csr_matrix:
    """Operator on a fully periodic torus of size T_i * m per axis.

    Used as an independent oracle: the torus spectrum must be the subset of
    the Bloch bands sampled at commensurate quasimomenta.
    """
    m = int(cells_per_axis)
    if m < 2:
        raise InvalidInputError("need at least 2 cells per axis on the torus")
    sizes = tuple(t * m for t in potential.period)
    if any(s < 3 for s in sizes):
        raise InvalidInputError("torus sides must be >= 3 to avoid double edges")
    n = potential.dimension
    count = int(np.prod(sizes))
    grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=1)
    rows, cols = [], []
    idx = np.arange(count).reshape(sizes)
    for axis in range(n):
        neighbor = np.roll(idx, -1, axis=axis)
        rows.extend([idx.ravel(), neighbor.ravel()])
        cols.extend([neighbor.ravel(), idx.ravel()])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    hop = sp.coo_matrix((-np.ones(rows.size), (rows, cols)), shape=(count, count))
    diag = 2.0 * n + potential.values_at(sites)
    return (hop.tocsr() + sp.diags(diag)).tocsr()


@dataclass
class BlochBandTable:
    """Band values of -Delta + V on a quasimomentum grid, plus gap endpoints."""

    potential: PeriodicPotential
    grid: int
    k_points: np.ndarray          # (n_k, N)
    bands: np.ndarray             # (n_k, cell_size), ascending per k
    band_intervals: np.ndarray    # (cell_size, 2) min/max over the grid
    sigma_minus: float
    sigma_plus: float

    @property
    def gap(self) -> tuple[float, float]:
        return (self.sigma_minus, self.sigma_plus)

    def to_csv(self, path) -> None:
        n = self.potential.dimension
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"k{i + 1}" for i in range(n)] + ["band_index", "lambda"])
            for k, lams in zip(self.k_points, self.bands):
                for j, lam in enumerate(lams):
                    writer.writerow([f"{ki:.17g}" for ki in k] + [str(j), f"{lam:.17g}"])


def bloch_matrix(potential: PeriodicPotential, k) -> np.ndarray:
    """Hermitian cell reductions of -Delta + V at quasimomenta k.

    `k` has shape (..., N); the result has shape (..., cell, cell), so a
    1-D k gives one matrix.  Hopping that wraps around the cell in
    direction +-e_i carries the phase exp(+- i k_i T_i).  The stack is
    built in 2N vectorised passes, one per (axis, step) in the order axis
    0 +1, axis 0 -1, axis 1 +1, ...; each site is a row once per pass, so
    every entry gets its terms in that order and no entry is written twice
    within a pass.
    """
    k = np.asarray(k, dtype=float)
    n = potential.dimension
    if k.ndim == 0 or k.shape[-1] != n:
        raise InvalidInputError(f"k has shape {k.shape}, expected (..., {n})")
    period = potential.period
    size = potential.cell_size
    cell_sites = np.indices(period).reshape(n, -1).T
    rows = np.arange(size)
    index = rows.reshape(period)
    mats = np.zeros(k.shape[:-1] + (size, size), dtype=complex)
    mats[..., rows, rows] = 2.0 * n + potential.cell.ravel()
    for axis in range(n):
        for step in (1, -1):
            moved = cell_sites[:, axis] + step
            wrap = (moved == period[axis]).astype(int) - (moved == -1)
            cols = np.roll(index, -step, axis=axis).ravel()
            phase = np.exp(1j * wrap * k[..., axis, None] * period[axis])
            mats[..., rows, cols] -= phase
    return mats


def bloch_band_edges(potential: PeriodicPotential, grid: int = 8) -> BlochBandTable:
    """Sample the Bloch bands on a uniform k-grid and certify the gap at 0.

    All grid^N cell matrices are built as one stack and solved by one
    batched `eigvalsh`.

    Raises NoSpectralGapError when a band interval crosses (or touches) 0,
    or when the sampled spectrum does not straddle 0 at all.
    """
    if grid < 8:
        raise InvalidInputError(f"grid resolution must be >= 8 per axis, got {grid}")
    n = potential.dimension
    ticks = 2.0 * np.pi * np.arange(grid) / grid
    k_points = ticks[np.indices((grid,) * n).reshape(n, -1).T]
    mats = bloch_matrix(potential, k_points)
    asymmetry = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    if np.any(asymmetry > 1e-12 * scale):
        raise NumericalError("Bloch reduction lost Hermitian symmetry")
    bands = np.linalg.eigvalsh(mats)

    intervals = np.stack([bands.min(axis=0), bands.max(axis=0)], axis=1)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(bands))))
    for j, (lo, hi) in enumerate(intervals):
        if lo <= tol and hi >= -tol:
            raise NoSpectralGapError(
                f"no spectral gap at 0: band {j} spans [{lo:.6g}, {hi:.6g}]")
    negative = bands[bands < 0.0]
    positive = bands[bands > 0.0]
    if negative.size == 0 or positive.size == 0:
        raise NoSpectralGapError(
            "no spectral gap at 0: sampled spectrum does not straddle 0")
    return BlochBandTable(
        potential=potential, grid=grid, k_points=k_points, bands=bands,
        band_intervals=intervals,
        sigma_minus=float(negative.max()), sigma_plus=float(positive.min()))


class SpectralSplit:
    """Full eigendecomposition of the box operator, split at 0.

    Eigenvalues are ascending, so the first `negative_count` eigenpairs span
    X^- and the rest span X^+.  This class is the only owner of that
    layout: eigencoordinates are indexed by the slices `minus` and `plus`,
    and the X^-/X^+ blocks of the eigenvector matrix and of the eigenvalues
    are views built once here.  Module functions add the spectral
    projectors and the equivalent inner product (|A| u, v)_2.

    `eigenpairs` = (eigenvalues, eigenvectors) skips the dense `eigh`, for
    a decomposition computed earlier (see `load_eigenpairs`); the zero
    eigenvalue and residual checks run on it all the same.
    """

    def __init__(self, box: BoxDomain, operator: sp.spmatrix,
                 gap: tuple[float, float], eigenpairs=None):
        n = box.site_count
        if operator.shape != (n, n):
            raise InvalidInputError(
                f"operator shape {operator.shape} does not match box with "
                f"{n} sites")
        self.box = box
        self.operator = operator.tocsr()
        self.gap = (float(gap[0]), float(gap[1]))
        if eigenpairs is None:
            eigenvalues, eigenvectors = sla.eigh(self.operator.toarray())
        else:
            # Fortran order keeps the solver's X^- / X^+ column blocks views
            eigenvalues = np.asarray(eigenpairs[0], dtype=float)
            eigenvectors = np.asfortranarray(eigenpairs[1], dtype=float)
            if eigenvalues.shape != (n,) or eigenvectors.shape != (n, n):
                raise InvalidInputError(
                    f"eigenpairs of shapes {eigenvalues.shape} and "
                    f"{eigenvectors.shape} do not match a box with {n} sites")
        if np.min(np.abs(eigenvalues)) < 1e-10:
            raise ZeroEigenvalueError(
                "operator has an eigenvalue at 0 (within 1e-10); "
                "positive/negative splitting is undefined")
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.abs_eigenvalues = np.abs(eigenvalues)
        self.negative_count = int(np.sum(eigenvalues < 0.0))
        self.minus = slice(0, self.negative_count)
        self.plus = slice(self.negative_count, n)
        # column blocks of a Fortran-ordered matrix are contiguous views
        self.minus_vectors = eigenvectors[:, self.minus]
        self.plus_vectors = eigenvectors[:, self.plus]
        self.minus_eigenvalues = eigenvalues[self.minus]
        self.plus_eigenvalues = eigenvalues[self.plus]  # = |lambda| on X^+
        self.abs_minus_eigenvalues = self.abs_eigenvalues[self.minus]
        # eigenpair residual check, in column blocks so that its temporaries
        # stay small.  Orthonormality is exact up to LAPACK and not checked
        # (an n^3 product): supplied eigenpairs must come from `eigh`, and
        # the CLI checks the hash of the file it loads them from.
        bad = 0
        for lo in range(0, n, RESIDUAL_BLOCK):
            vecs = eigenvectors[:, lo:lo + RESIDUAL_BLOCK]
            vals = eigenvalues[lo:lo + RESIDUAL_BLOCK]
            residual = np.linalg.norm(self.operator @ vecs - vecs * vals, axis=0)
            bad += int(np.sum(residual > 1e-9 * (1.0 + np.abs(vals))))
        if bad:
            raise NumericalError(
                f"{bad} eigenpairs exceed the residual tolerance")
        edge = 1e-9 * (1.0 + max(abs(self.gap[0]), abs(self.gap[1])))
        inside = (eigenvalues > self.gap[0] + edge) & (eigenvalues < self.gap[1] - edge)
        self.intrusions = [float(v) for v in eigenvalues[inside]]

    @property
    def size(self) -> int:
        return self.box.site_count

    @property
    def positive_count(self) -> int:
        return self.size - self.negative_count

    @property
    def smallest_abs_eigenvalue(self) -> float:
        return float(self.abs_eigenvalues.min())

    def coords_of(self, values: np.ndarray) -> np.ndarray:
        """Eigencoordinates E^T v of an array of site values."""
        return self.eigenvectors.T @ values

    def values_of(self, coords: np.ndarray) -> np.ndarray:
        """Site values E c of an array of eigencoordinates."""
        return self.eigenvectors @ coords

    def to_coords(self, u: LatticeField) -> np.ndarray:
        if u.box != self.box:
            raise InvalidInputError("field box does not match the split's box")
        return self.coords_of(u.values)

    def from_coords(self, coords: np.ndarray) -> LatticeField:
        return LatticeField(self.box, self.values_of(coords))

    def plus_norm(self, plus_coords: np.ndarray) -> float:
        """Equivalent norm sqrt(sum lambda_i c_i^2) of X^+ eigencoordinates."""
        return float(np.sqrt(np.sum(self.plus_eigenvalues * plus_coords ** 2)))

    def gap_report(self) -> dict:
        return {"sigma_minus": self.gap[0], "sigma_plus": self.gap[1],
                "intrusions": list(self.intrusions)}


def spectral_split(box: BoxDomain, operator: sp.spmatrix,
                   gap: tuple[float, float], eigenpairs=None) -> SpectralSplit:
    """Dense full eigendecomposition split at 0 (desk scale only)."""
    if box.site_count > DENSE_EIG_BUDGET:
        raise InvalidInputError(
            f"box has {box.site_count} sites, above the dense eigendecomposition "
            f"budget of {DENSE_EIG_BUDGET}; use a smaller radius")
    return SpectralSplit(box, operator, gap, eigenpairs)


def save_eigenpairs(split: SpectralSplit, path) -> None:
    """Write the eigenvalues, then the eigenvector matrix, as two .npy records
    in one file.  np.save keeps the matrix's Fortran order, and the bytes
    depend only on the arrays (no timestamps, unlike .npz)."""
    with atomic_open(path, "wb") as fh:
        np.save(fh, split.eigenvalues)
        np.save(fh, split.eigenvectors)


def load_eigenpairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back what `save_eigenpairs` wrote: (eigenvalues, eigenvectors)."""
    with open(path, "rb") as fh:
        return np.load(fh), np.load(fh)


def project(split: SpectralSplit, u: LatticeField, sign: str) -> LatticeField:
    """Spectral projection of u onto X^+ ("plus") or X^- ("minus")."""
    if sign not in ("plus", "minus"):
        raise InvalidInputError(f'sign must be "plus" or "minus", got {sign!r}')
    coords = split.to_coords(u)
    coords[split.plus if sign == "minus" else split.minus] = 0.0
    return split.from_coords(coords)


def split_inner(split: SpectralSplit, u: LatticeField, v: LatticeField) -> float:
    """Equivalent inner product (u, v) = (A u^+, v^+)_2 - (A u^-, v^-)_2."""
    cu, cv = split.to_coords(u), split.to_coords(v)
    return float(np.sum(split.abs_eigenvalues * cu * cv))


def split_norm(split: SpectralSplit, u: LatticeField) -> float:
    return float(np.sqrt(max(split_inner(split, u, u), 0.0)))


def projector_l1_norm(split: SpectralSplit, sign: str) -> float:
    """Operator norm l1 -> l1 of a spectral projector (max column sum)."""
    if sign not in ("plus", "minus"):
        raise InvalidInputError(f'sign must be "plus" or "minus", got {sign!r}')
    basis = split.minus_vectors if sign == "minus" else split.plus_vectors
    return float(np.abs(basis @ basis.T).sum(axis=0).max())
