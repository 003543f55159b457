"""Reference dense forms of the parity-sector split.

`SpectralSplit` keeps each sector's eigenvectors V_s in the sector basis and
multiplies by them sector by sector.  `dense_lift` builds the n x n
eigenvector matrix the way the split once stored it: each Q_s V_s written
into one matrix, columns in the stable ascending order of the sectors'
concatenated eigenvalues.  `projector_l1_norm` needs the whole matrix and
so lives here too.  Only the sector bases come from the package.
`sector_eigenpairs` diagonalizes the sector blocks with a chosen LAPACK
driver, and `rotated_in_eigenspaces` changes the basis inside their
degenerate eigenspaces, so that a test can hand the split other eigenpairs
of the same operator.
`unit_plus_direction` and `gap_report` are small helpers of the tests."""

import numpy as np
import scipy.linalg as sla

from latticegap.errors import InvalidInputError
from latticegap.lattice import LatticeField
from latticegap.spectral import parity_sectors, reflection_axes

from conftest import eigenvector_matrix


def dense_lift(box, operator):
    """(eigenvalues, E): one `evd` `eigh` per sector block Q_s^T A Q_s,
    lifted."""
    n = box.site_count
    bases = [sector.basis(n)
             for sector in parity_sectors(box, reflection_axes(box, operator))]
    pairs = sector_eigenpairs(box, operator, "evd")
    values = np.concatenate([lam for lam, _ in pairs])
    order = np.argsort(values, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    vectors = np.empty((n, n))
    start = 0
    for q, (lam, v) in zip(bases, pairs):
        vectors[:, position[start:start + lam.size]] = q @ v
        start += lam.size
    return values[order], vectors


def sector_eigenpairs(box, operator, driver):
    """One (eigenvalues, eigenvectors) pair per parity-sector block, from
    `scipy.linalg.eigh` with the LAPACK driver `driver`; the `eigenpairs`
    argument of `spectral_split`."""
    bases = [sector.basis(box.site_count)
             for sector in parity_sectors(box, reflection_axes(box, operator))]
    return [sla.eigh((q.T @ operator @ q).toarray(), driver=driver)
            for q in bases]


def rotated_in_eigenspaces(eigenpairs, rng, tol=1e-9):
    """The same eigenpairs with each sector's eigenvectors turned by a random
    orthogonal matrix inside every eigenspace (eigenvalues within `tol`),
    a random sign for a simple eigenvalue: another basis LAPACK could have
    returned."""
    rotated = []
    for values, vectors in eigenpairs:
        vectors = vectors.copy()
        cuts = np.flatnonzero(np.diff(values) > tol) + 1
        for cluster in np.split(np.arange(values.size), cuts):
            turn, _ = np.linalg.qr(rng.standard_normal((cluster.size,) * 2))
            vectors[:, cluster] = vectors[:, cluster] @ turn
        rotated.append((values, vectors))
    return rotated


def projector_l1_norm(split, sign):
    """Operator norm l1 -> l1 of a spectral projector (max column sum);
    sign is "plus" or "minus"."""
    basis = eigenvector_matrix(split)[:, split.minus if sign == "minus" else split.plus]
    return float(np.abs(basis @ basis.T).sum(axis=0).max())


def unit_plus_direction(split, seed_field):
    """Project a field onto X^+ and normalize it in the equivalent norm."""
    coords = split.coords_of(seed_field.values)
    coords[split.minus] = 0.0
    norm = float(np.sqrt(np.sum(np.abs(split.eigenvalues) * coords ** 2)))
    if norm < 1e-14:
        raise InvalidInputError("field has no X^+ component to normalize")
    return LatticeField(split.box, split.values_of(coords / norm))


def gap_report(split):
    return {"sigma_minus": split.gap[0], "sigma_plus": split.gap[1],
            "intrusions": list(split.intrusions)}
