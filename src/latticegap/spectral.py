"""Periodic Schrodinger operators -Delta + V: assembly, gap certification,
and the positive/negative spectral splitting.

The infinite-lattice spectrum is certified through Floquet-Bloch reduction:
for each quasimomentum k the operator restricts to a |cell| x |cell|
Hermitian matrix with hopping phases exp(i k_i T_i) across the cell
boundary, and the union of its eigenvalue bands over k is the spectrum.
The matrices of the whole k-grid are built as one (n_k, cell, cell) stack
and solved by one batched `eigvalsh`.
The box operator is then fully diagonalized (dense per sector, desk
scale) and split at 0 into X^- (negative eigenvalues) and X^+ (positive
ones).  Dirichlet truncation can park boundary eigenvalues inside the
infinite-lattice gap; these are reported as "gap intrusions", never
silently dropped.

The diagonalization uses the box's reflections x_i -> -x_i.  Along each
axis where the operator equals its reflected copy exactly (every axis for
the checkerboard and constant potentials), the sites pair up into the
orthonormal basis e_0, (e_x + e_-x)/sqrt 2 and (e_x - e_-x)/sqrt 2, and the
operator has no entries between states of different parity.  So it splits
into 2^k parity sectors of about n / 2^k sites each (k symmetric axes),
and each sector is diagonalized on its own (a symmetry-adapted basis in the
sense of Fassler & Stiefel, Group Theoretical Methods and Their
Applications, 1992).  The split keeps the eigenvectors in these blocks,
and its products with eigencoordinates run sector by sector.  Only the
linear algebra is blocked: the eigenvectors together span the whole box,
and the solution is not restricted to a sector.  Every split's eigenpairs,
computed or read back from a file, come from one generator,
`split_sectors`, one checked sector at a time.  `SectorStream`, the one
reader of them, and the file writer `write_split` hold one sector at a
time; `SpectralSplit` is a stream that keeps every sector it reads.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import tokenize
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (InvalidInputError, NoSpectralGapError, NumericalError,
                     ZeroEigenvalueError)
from .jsonio import atomic_open, real
from .lattice import BoxDomain, LatticeField

DENSE_EIG_BUDGET = 5000  # refuse dense full decompositions above this size
RESIDUAL_BLOCK = 256     # eigenvector columns per block of the residual check
MIN_BLOCH_GRID = 8       # k-points per axis below which the band edges are too coarse
MAX_BLOCH_ENTRIES = 2 ** 25  # bound on grid^N |cell|^2, the Bloch stack's entries


def check_dense_budget(name: str, sites: int) -> None:
    """Refuse a dense eigenproblem on more than `DENSE_EIG_BUDGET` sites."""
    if sites > DENSE_EIG_BUDGET:
        raise InvalidInputError(
            f"{name} has {sites} sites, above the budget of {DENSE_EIG_BUDGET} "
            f"for a dense eigenproblem; use a smaller radius")


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

    The shift is `checkerboard_shift(dimension, shift)`.
    """
    period = (2,) * dimension
    idx = np.indices(period).reshape(dimension, -1).T
    cell = (amplitude * (-1.0) ** idx.sum(axis=1)
            + checkerboard_shift(dimension, shift)).reshape(period)
    return PeriodicPotential(period, cell)


def checkerboard_shift(dimension: int, shift: float | None) -> float:
    """`shift`, or by default -2N, which cancels the Laplacian diagonal and
    so places the checkerboard's spectrum symmetrically around 0 with gap
    (-|c|, |c|)."""
    return -2.0 * dimension if shift is None else shift


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
            # Python floats from tolist() format faster than numpy scalars
            for k, lams in zip(self.k_points.tolist(), self.bands.tolist()):
                prefix = [real(ki) for ki in k]
                writer.writerows(prefix + [str(j), real(lam)]
                                 for j, lam in enumerate(lams))


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


def check_bloch_grid(potential: PeriodicPotential, grid: int) -> None:
    """Refuse a k-grid coarser than `MIN_BLOCH_GRID` per axis, or one whose
    stack of grid^N cell matrices has more than `MAX_BLOCH_ENTRIES` entries."""
    if grid < MIN_BLOCH_GRID:
        raise InvalidInputError(
            f"grid resolution must be >= {MIN_BLOCH_GRID} per axis, got {grid}")
    n, cell = potential.dimension, potential.cell_size
    if grid ** n * cell ** 2 > MAX_BLOCH_ENTRIES:
        raise InvalidInputError(
            f"grid^N |cell|^2 = {grid}^{n} x {cell}^2 exceeds the Bloch stack "
            f"bound {MAX_BLOCH_ENTRIES}")


def bloch_band_edges(potential: PeriodicPotential, grid: int = 8) -> BlochBandTable:
    """Sample the Bloch bands on a uniform k-grid and certify the gap at 0.

    All grid^N cell matrices, k_i = 2 pi j / grid for j < grid on each
    axis, are built as one stack and solved by one batched `eigvalsh`, once
    `check_bloch_grid` admits the grid.  k_i enters only through the phase
    k_i T_i (T_i the cell period), so only grid / gcd(grid, T_i) phases per
    axis are distinct: 64 of the 512 k-points for the checkerboard at 8.

    Raises NoSpectralGapError when a band interval crosses (or touches) 0,
    or when the sampled spectrum does not straddle 0 at all.
    """
    check_bloch_grid(potential, grid)
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
        sigma_minus=float(negative.max()), sigma_plus=float(positive.min()))


def reflection_axes(box: BoxDomain, operator: sp.spmatrix) -> tuple[int, ...]:
    """Axes i along which the operator equals its copy under x_i -> -x_i
    exactly, entry for entry."""
    index = np.arange(box.site_count).reshape(box.shape)
    axes = []
    for axis in range(box.dimension):
        mirror = np.flip(index, axis=axis).ravel()
        if (operator[mirror][:, mirror] != operator).nnz == 0:
            axes.append(axis)
    return tuple(axes)


@dataclass(frozen=True)
class ParitySector:
    """The columns of the parity-adapted basis Q that span one sector.

    Every site lies in at most one column of a sector: column `cols[j]` has
    the entry `coef[j]` at site `rows[j]`, and the sector has `size`
    columns.  The sites in `rows` are ascending.
    """

    rows: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    size: int

    def basis(self, site_count: int) -> sp.csr_matrix:
        """Q_s as a sparse (site_count, size) matrix."""
        return sp.csr_matrix((self.coef, (self.rows, self.cols)),
                             shape=(site_count, self.size))

    def lift(self, coords: np.ndarray, site_count: int) -> np.ndarray:
        """Site values Q_s c of sector coordinates, one column per column of
        `coords`.  A gather, not a sum, so with Q_s = I the result holds the
        bytes of `coords`."""
        out = np.zeros((site_count, coords.shape[1]))
        out[self.rows] = self.coef[:, None] * coords[self.cols]
        return out


def parity_sectors(box: BoxDomain, axes: tuple[int, ...]) -> list[ParitySector]:
    """The sectors of the orthonormal basis that is e_0, (e_x + e_-x)/sqrt 2
    (even) and (e_x - e_-x)/sqrt 2 (odd) along each axis in `axes`, and the
    identity along the others.

    There is one sector per choice of parity on each axis in `axes`, in the
    order of `itertools.product` with even before odd; the odd sectors of a
    radius-0 box are empty and left out.  Without symmetric axes the one
    sector is the identity.  A column is a multi-index over the axes (|x_i|
    for even, |x_i| - 1 for odd, x_i + R for the others) in row-major
    order.  Its entry at a site is the product of x_i's signs over the odd
    axes, divided by sqrt(2^m), m the number of axes in `axes` with
    x_i != 0.
    """
    n, r = box.site_count, box.radius
    sectors = []
    for parities in itertools.product((0, 1), repeat=len(axes)):
        odd = dict(zip(axes, parities))
        inside = np.ones(n, dtype=bool)
        col = np.zeros(n, dtype=int)
        sign = np.ones(n)
        paired = np.zeros(n, dtype=int)
        size = 1
        for axis in range(box.dimension):
            x = box.sites[:, axis]
            if axis not in odd:
                col, size = col * box.side + x + r, size * box.side
                continue
            count = r + 1 - odd[axis]
            col, size = col * count + np.abs(x) - odd[axis], size * count
            paired += x != 0
            if odd[axis]:
                inside &= x != 0
                sign *= np.sign(x)
        if size == 0:
            continue
        rows = np.flatnonzero(inside)
        sectors.append(ParitySector(
            rows=rows, cols=col[rows],
            coef=sign[rows] / np.sqrt(2.0 ** paired[rows]), size=size))
    return sectors


def split_sectors(box: BoxDomain, operator: sp.spmatrix, eigenpairs=None):
    """The one way to a split's eigenpairs, computed or supplied: for each
    sector s of `parity_sectors`, over the axes where the operator equals
    its mirror image, yields (sector, ascending eigenvalues, eigenvectors
    V_s in the sector basis) of the block Q_s^T A Q_s, making only that
    sector's block and eigenpairs.  The block is diagonalized by LAPACK's
    divide-and-conquer `dsyevd` (Gu & Eisenstat, SIAM J. Matrix Anal. Appl.
    16, 1995), unless `eigenpairs` supplies one (eigenvalues, eigenvectors)
    pair per sector in `parity_sectors` order, as `read_eigenpairs` reads
    them lazily.

    A box that `check_dense_budget` refuses and an operator of another shape
    raise InvalidInputError before any work; a supplied pair of the wrong
    shape, a missing or extra one, or non-finite or unsorted values raise it
    when their sector is reached.  Every sector is then checked for an
    eigenvalue at 0 (ZeroEigenvalueError) and for its eigenpair residuals
    (NumericalError), in column blocks so that their temporaries stay
    small.  Orthonormality is exact up to LAPACK and not checked: supplied
    eigenpairs must come from this function, and the CLI checks the hash of
    the file it loads them from.
    """
    n = box.site_count
    check_dense_budget("the box", n)
    if operator.shape != (n, n):
        raise InvalidInputError(
            f"operator shape {operator.shape} does not match box with "
            f"{n} sites")
    operator = operator.tocsr()
    sectors = parity_sectors(box, reflection_axes(box, operator))
    mismatch = (f"eigenpairs do not match the {len(sectors)} parity sectors "
                f"of a box with {n} sites")
    supplied = None if eigenpairs is None else iter(eigenpairs)
    for sector in sectors:
        q = sector.basis(n)
        # a helper makes the eigenpairs, so this frame holds none of them
        # while the next sector is made or read
        yield (sector, *_sector_eigenpairs(q.T @ operator @ q, supplied, mismatch))
    if supplied is not None and next(supplied, None) is not None:
        raise InvalidInputError(mismatch)


def _sector_eigenpairs(block: sp.spmatrix, supplied, mismatch: str):
    """The checked (eigenvalues, eigenvectors) of one sector's block for
    `split_sectors`: computed, or the next pair of `supplied`."""
    size = block.shape[0]
    if supplied is None:
        values, vectors = sla.eigh(block.toarray(order="F"), overwrite_a=True,
                                   driver="evd")
    else:
        pair = next(supplied, None)
        if pair is None or tuple(np.shape(a) for a in pair) != ((size,), (size, size)):
            raise InvalidInputError(mismatch)
        # Fortran order keeps the sector's X^- / X^+ columns contiguous
        values = np.asarray(pair[0], dtype=float)
        vectors = np.asfortranarray(pair[1], dtype=float)
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))):
            raise InvalidInputError("sector eigenpairs are not finite")
        if np.any(np.diff(values) < 0):
            raise InvalidInputError("sector eigenvalues are not ascending")
    if np.min(np.abs(values)) < 1e-10:
        raise ZeroEigenvalueError(
            "operator has an eigenvalue at 0 (within 1e-10); "
            "positive/negative splitting is undefined")
    bad = 0
    for lo in range(0, size, RESIDUAL_BLOCK):
        vecs = vectors[:, lo:lo + RESIDUAL_BLOCK]
        vals = values[lo:lo + RESIDUAL_BLOCK]
        residual = np.linalg.norm(block @ vecs - vecs * vals, axis=0)
        # NaN fails "<=", so a non-finite residual counts as bad
        bad += int(np.sum(~(residual <= 1e-9 * (1.0 + np.abs(vals)))))
    if bad:
        raise NumericalError(f"{bad} eigenpairs exceed the residual tolerance")
    return values, vectors


def check_gap(gap) -> tuple[float, float]:
    """The certified gap as floats, once it contains 0 (finite sigma_minus <
    0 < sigma_plus), the paper's standing hypothesis."""
    gap = (float(gap[0]), float(gap[1]))
    if not -np.inf < gap[0] < 0.0 < gap[1] < np.inf:
        raise InvalidInputError(f"the gap {gap!r} does not contain 0")
    return gap


def gap_intrusions(eigenvalues: np.ndarray, gap: tuple[float, float]) -> list[float]:
    """The ascending box `eigenvalues` inside the infinite-lattice `gap` by
    more than 1e-9 (1 + the larger |edge|): Dirichlet truncation parks them
    there, and they are reported, never dropped."""
    edge = 1e-9 * (1.0 + max(abs(gap[0]), abs(gap[1])))
    inside = (eigenvalues > gap[0] + edge) & (eigenvalues < gap[1] - edge)
    return [float(v) for v in eigenvalues[inside]]


class SectorStream:
    """A split read in one pass, one parity sector at a time, straight from
    `split_sectors`: the one reader of a split's sectors.  It has what
    `hardy.rho_plus` reads of a split (`box`, `operator`, `plus_sectors`);
    a `gap` that `check_gap` refuses raises InvalidInputError before any
    work.  `drain` checks the sectors not yet read."""

    def __init__(self, box: BoxDomain, operator: sp.spmatrix,
                 gap: tuple[float, float], eigenpairs=None):
        self.gap = check_gap(gap)
        self.box = box
        self.operator = operator.tocsr()
        self._sectors = split_sectors(box, self.operator, eigenpairs)

    def plus_sectors(self):
        """(sector, X^+ eigenvalues, X^+ eigenvectors C_s in the sector
        basis) for each sector that holds X^+ columns, which follow its X^-
        columns; Q_s C_s are those columns of E_+, in coordinate order."""
        for sector, values, vectors in self._sectors:
            k = int(np.sum(values < 0.0))
            if k < values.size:
                yield sector, values[k:], vectors[:, k:]
            del values, vectors  # not held while the next sector is read

    def drain(self) -> None:
        deque(self._sectors, maxlen=0)


class SpectralSplit(SectorStream):
    """Full eigendecomposition of the box operator, split at 0 and kept one
    reflection-parity sector at a time.

    The split reads every sector of its `SectorStream` and keeps them: the
    ascending eigenvalues of the block Q_s^T A Q_s and its eigenvectors V_s
    in the sector basis.  The blocks between sectors vanish in exact
    arithmetic and are never formed, and neither is an n x n eigenvector
    matrix.  Without a symmetric axis there is one sector with Q = I, and V
    is exactly `scipy.linalg.eigh(operator.toarray(), driver="evd")`.

    The `evd` driver is chosen because the box spectrum has large clusters
    (at R = 6 the eigenvalue +1 is 19-fold), on which scipy's default MRRR
    driver `evr` is about six times slower and loses orthogonality to
    2e-13; `evd` keeps it to 4e-15.  Inside a degenerate eigenspace the
    basis is whichever one LAPACK returns; the solver draws its random
    starts in site space so that they do not depend on it.

    Eigencoordinate i belongs to the i-th eigenvalue in the stable ascending
    order of the sectors' concatenated eigenvalues, so the first
    `negative_count` coordinates span X^- (the slice `minus`) and the rest
    X^+ (the slice `plus`); in each sector the X^- columns are the leading
    ones.  This class is the only owner of that layout.  Other modules read
    only its contract: `box`, `operator`, `gap`, the ascending `eigenvalues`,
    `size`, `negative_count`, the slices `minus`/`plus`, `intrusions`, and
    `values_of`/`coords_of`, which map between eigencoordinates and site
    values sector by sector, for all coordinates or for the X^- or X^+ ones
    alone (and `hardy.rho_plus` reads the inherited `plus_sectors`).  Module
    functions add the spectral projectors and the equivalent inner product
    (|A| u, v)_2.  Every refusal of `split_sectors` that needs no
    eigenpairs raises InvalidInputError before any work.

    `eigenpairs`, one (eigenvalues, eigenvectors) pair per sector in
    `parity_sectors` order, skips the diagonalization for a decomposition
    computed earlier (see `read_eigenpairs`); `split_sectors` checks them
    as it checks its own.
    """

    def __init__(self, box: BoxDomain, operator: sp.spmatrix,
                 gap: tuple[float, float], eigenpairs=None):
        super().__init__(box, operator, gap, eigenpairs)
        self._sectors = sectors = list(self._sectors)
        n = box.site_count
        eigenvalues = np.concatenate([values for _, values, _ in sectors])
        order = np.argsort(eigenvalues, kind="stable")
        index = np.empty(n, dtype=np.intp)  # coordinate of each sector column
        index[order] = np.arange(n)
        self.eigenvalues = eigenvalues[order]
        self.negative_count = nneg = int(np.sum(eigenvalues < 0.0))
        self.minus = slice(0, nneg)
        self.plus = slice(nneg, n)
        self.intrusions = gap_intrusions(self.eigenvalues, self.gap)
        # Q, one column block per sector, and for each part of the
        # coordinates its nonempty sectors as (sector, their columns of Q,
        # V_s columns, the coordinates of those within the part)
        self._basis = sp.hstack([sector.basis(n) for sector, _, _ in sectors],
                                format="csr")
        self._basis_t = self._basis.T.tocsr()
        self._blocks = {"all": [], "minus": [], "plus": []}
        lo = 0
        for sector, values, vectors in sectors:
            rows = slice(lo, lo + sector.size)
            coords, k = index[rows], int(np.sum(values < 0.0))
            lo += sector.size
            for part, columns, offset in (("all", slice(None), 0),
                                          ("minus", slice(0, k), 0),
                                          ("plus", slice(k, None), nneg)):
                if coords[columns].size:
                    self._blocks[part].append(
                        (sector, rows, vectors[:, columns],
                         coords[columns] - offset))

    @property
    def size(self) -> int:
        return self.box.site_count

    def values_of(self, coords: np.ndarray, part: str = "all") -> np.ndarray:
        """Site values E c of eigencoordinates, one column per column of a
        2-D `coords`.  With part "minus" or "plus", `coords` holds X^- or X^+
        coordinates only, and the result is E_- c or E_+ c."""
        z = np.zeros((self.size,) + coords.shape[1:])
        for _, rows, vectors, index in self._blocks[part]:
            z[rows] = vectors @ coords[index]
        return self._basis @ z

    def coords_of(self, values: np.ndarray, part: str = "all") -> np.ndarray:
        """Eigencoordinates E^T v of site values, one column per column of a
        2-D `values`.  With part "minus" or "plus", only the X^- or X^+
        coordinates: E_-^T v or E_+^T v."""
        count = {"all": self.size, "minus": self.negative_count,
                 "plus": self.size - self.negative_count}[part]
        w = self._basis_t @ values
        out = np.empty((count,) + values.shape[1:])
        # the reverse of values_of's order: after one, start on the blocks in cache
        for _, rows, vectors, index in reversed(self._blocks[part]):
            out[index] = vectors.T @ w[rows]
        return out


def spectral_split(box: BoxDomain, operator: sp.spmatrix,
                   gap: tuple[float, float], eigenpairs=None) -> SpectralSplit:
    """Full eigendecomposition split at 0, dense per parity sector (desk
    scale only)."""
    return SpectralSplit(box, operator, gap, eigenpairs)


SPLIT_LAYOUT = "parity-sectors"  # the layout `write_split` gives split.npy


def write_split(box: BoxDomain, operator: sp.spmatrix, path) -> tuple[np.ndarray, str]:
    """Diagonalize the box operator and write split.npy one sector at a time,
    as `split_sectors` yields it: .npy records of each sector's eigenvalues,
    then its eigenvectors in the sector basis (np.save keeps their Fortran
    order; no timestamps, unlike .npz).  Returns the ascending eigenvalues
    and the SHA-256 of the bytes written, hashed as they are written."""
    digest = hashlib.sha256()
    eigenvalues = []
    with atomic_open(path, "wb") as fh:
        def write(data):
            digest.update(data)
            return fh.write(data)

        hashed = SimpleNamespace(write=write)
        for _, values, vectors in split_sectors(box, operator):
            np.save(hashed, values)
            np.save(hashed, vectors)
            eigenvalues.append(values)
            del vectors  # not held while the next sector is diagonalized
    return np.sort(np.concatenate(eigenvalues), kind="stable"), digest.hexdigest()


def read_eigenpairs(path):
    """Lazily, the (eigenvalues, eigenvectors) pair of each sector in the
    file `write_split` wrote.  A record that cannot be read, is cut short or
    is not a float64 array raises InvalidInputError; whether the pairs fit
    a box is checked by `split_sectors`."""
    with open(path, "rb") as fh:
        while fh.peek(1):
            yield _read_record(fh), _read_record(fh)


def _read_record(fh) -> np.ndarray:
    try:
        array = np.load(fh)
    except (OSError, EOFError, ValueError, SyntaxError,
            tokenize.TokenError) as exc:
        # the last two come from numpy's fallback parser of old-style headers
        raise InvalidInputError(f"unreadable split record: {exc}") from exc
    if array.dtype != np.float64:
        raise InvalidInputError("split records are not float64 arrays")
    return array


def check_on_box(split: SpectralSplit, *fields: LatticeField) -> None:
    """Refuse fields that do not live on the split's box."""
    if any(u.box != split.box for u in fields):
        raise InvalidInputError("field box does not match the split's box")


def project(split: SpectralSplit, u: LatticeField, sign: str) -> LatticeField:
    """Spectral projection of u onto X^+ ("plus") or X^- ("minus")."""
    if sign not in ("plus", "minus"):
        raise InvalidInputError(f'sign must be "plus" or "minus", got {sign!r}')
    check_on_box(split, u)
    coords = split.coords_of(u.values)
    coords[split.plus if sign == "minus" else split.minus] = 0.0
    return LatticeField(split.box, split.values_of(coords))


def split_inner(split: SpectralSplit, u: LatticeField, v: LatticeField) -> float:
    """Equivalent inner product (u, v) = (A u^+, v^+)_2 - (A u^-, v^-)_2."""
    check_on_box(split, u, v)
    return coords_inner(split, split.coords_of(u.values), split.coords_of(v.values))


def coords_inner(split: SpectralSplit, cu: np.ndarray, cv: np.ndarray) -> float:
    """(u, v) from the eigencoordinates cu = E^T u and cv = E^T v."""
    return float(np.sum(np.abs(split.eigenvalues) * cu * cv))


def split_norm(split: SpectralSplit, u: LatticeField) -> float:
    check_on_box(split, u)
    coords = split.coords_of(u.values)
    return float(np.sqrt(coords_inner(split, coords, coords)))
