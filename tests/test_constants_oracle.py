"""The per-sector box constants against the full-box oracles.

`best_hardy_constant` solves on the all-even parity sector and `rho_plus`
on one pencil per parity sector of X^+; `oracle_constants` solves both on
the whole box.  Values and witness quotients agree to 1e-12 relative on
symmetric operators, on an operator with no symmetric axis, and on a split
whose X^+ basis mixes parities (which must fall back to one block)."""

import numpy as np
import pytest

import latticegap as lg
from latticegap import hardy
from latticegap.errors import InvalidInputError
from latticegap.spectral import mirror_index

from oracle_constants import (hardy_ratio, kappa_dense, rho_plus_full,
                              rho_plus_quotient)

REL = 1e-12


def _close(value, reference):
    return abs(value - reference) <= REL * abs(reference)


def _split(box, potential, gap=(-0.5, 0.5)):
    return lg.spectral_split(box, lg.assemble_operator(box, potential), gap)


def _check_rho_plus(split):
    result = lg.rho_plus(split)
    value = rho_plus_full(split)
    assert _close(result.value, value)
    assert _close(rho_plus_quotient(split, result.witness.values), value)
    return result


@pytest.mark.parametrize("dimension, radius",
                         [(3, r) for r in range(6)] + [(4, r) for r in range(3)])
@pytest.mark.parametrize("weight", [lg.EUCLIDEAN_WEIGHT, lg.GRAPH_WEIGHT],
                         ids=["euclidean", "graph"])
def test_kappa_matches_full_pencil(dimension, radius, weight):
    box = lg.BoxDomain(dimension, radius)
    result = lg.best_hardy_constant(box, weight)
    kappa = kappa_dense(box, weight)
    assert _close(result.kappa, kappa)
    assert _close(hardy_ratio(box, weight, result.witness.values), kappa)


@pytest.mark.parametrize("dimension, radius",
                         [(3, r) for r in range(6)] + [(4, r) for r in range(3)])
@pytest.mark.parametrize("amplitude", [1.0, 0.5])
def test_rho_plus_matches_full_pencil_checkerboard(dimension, radius, amplitude):
    box = lg.BoxDomain(dimension, radius)
    potential = lg.checkerboard_potential(dimension, amplitude)
    split = _split(box, potential, (-amplitude, amplitude))
    blocks = list(hardy._plus_blocks(split))
    assert sum(columns.size for _, columns in blocks) == split.positive_count
    assert len(blocks) > 1 or radius == 0
    _check_rho_plus(split)


@pytest.mark.parametrize("radius", [2, 3])
def test_rho_plus_matches_full_pencil_constant_potential(radius):
    # -Delta - 5.3 straddles 0 with a highly degenerate X^+
    box = lg.BoxDomain(3, radius)
    _check_rho_plus(_split(box, lg.constant_potential(3, -5.3)))


def test_rho_plus_without_symmetric_axis_is_one_block():
    rng = np.random.default_rng(5)
    potential = lg.PeriodicPotential((3, 3, 3), rng.uniform(-1.0, 1.0, (3, 3, 3)) - 6.0)
    box = lg.BoxDomain(3, 2)
    split = _split(box, potential)
    assert lg.spectral.reflection_axes(box, split.operator) == ()
    (sector, columns), = hardy._plus_blocks(split)
    assert sector.size == box.site_count and columns.size == split.positive_count
    _check_rho_plus(split)


def _parities(box, vectors):
    return np.array([np.einsum("ij,ij->j", vectors[mirror_index(box, axis)], vectors)
                     for axis in range(box.dimension)])


def test_rho_plus_mixed_parity_basis_falls_back_to_one_block(split_r3):
    # rotate two X^+ eigenvectors of one eigenvalue and different parities
    # into each other: the supplied basis is no longer parity-definite
    box, lam = split_r3.box, split_r3.eigenvalues.copy()
    vectors = np.array(split_r3.eigenvectors)
    parity = _parities(box, vectors)
    plus = np.arange(split_r3.negative_count, box.site_count)
    i, k = next((i, k) for i in plus for k in plus
                if i < k and abs(lam[i] - lam[k]) < 1e-12 * lam[i]
                and np.any(np.sign(parity[:, i]) != np.sign(parity[:, k])))
    vi, vk = vectors[:, i].copy(), vectors[:, k].copy()
    vectors[:, i], vectors[:, k] = (vi + vk) / np.sqrt(2.0), (vi - vk) / np.sqrt(2.0)
    lam[k] = lam[i]
    rotated = lg.SpectralSplit(box, split_r3.operator, split_r3.gap,
                               eigenpairs=(lam, vectors))
    assert len(list(hardy._plus_blocks(split_r3))) == 8
    (sector, columns), = hardy._plus_blocks(rotated)
    assert sector.size == box.site_count and columns.size == rotated.positive_count
    result = _check_rho_plus(rotated)
    assert _close(result.value, lg.rho_plus(split_r3).value)


def test_rho_plus_refuses_empty_positive_space():
    box = lg.BoxDomain(3, 2)
    split = _split(box, lg.constant_potential(3, -20.0), (-8.0, 1.0))
    assert split.positive_count == 0
    with pytest.raises(InvalidInputError, match="nonempty X\\^\\+"):
        lg.rho_plus(split)


def test_kappa_refuses_even_sector_above_budget():
    # 18^3 = 5,832 even sites at R = 17, above DENSE_EIG_BUDGET = 5,000
    with pytest.raises(InvalidInputError, match="even sector has 5832 sites"):
        lg.best_hardy_constant(lg.BoxDomain(3, 17))
