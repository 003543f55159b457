"""The per-sector box constants against the full-box oracles.

`best_hardy_constant` solves on the all-even parity sector and `rho_plus`
on one pencil per parity sector of X^+; `oracle_constants` solves both on
the whole box.  Values and witness quotients agree to 1e-12 relative on
symmetric operators and on an operator with no symmetric axis.  On the
checkerboard both constants also have a closed form, an exact oracle at
1e-13."""

import numpy as np
import pytest

import latticegap as lg
from latticegap.errors import InvalidInputError

from oracle_constants import (checkerboard_constants, hardy_ratio,
                              kappa_dense, rho_plus_full, rho_plus_quotient)

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
    blocks = list(split.plus_sectors())
    assert sum(lam.size for _, lam, _ in blocks) == split.size - split.negative_count
    assert len(blocks) > 1 or radius == 0
    _check_rho_plus(split)


@pytest.mark.parametrize("radius", [2, 3, 4])
@pytest.mark.parametrize("amplitude", [0.5, 1.0, 3.0, 3.5, 5.0])
def test_checkerboard_constants_match_closed_form(radius, amplitude):
    # exact oracle: rho_plus = |c| / (2N) while |c| <= N, and lambda_1^+ = |c|
    box = lg.BoxDomain(3, radius)
    split = _split(box, lg.checkerboard_potential(3, amplitude),
                   (-amplitude, amplitude))
    value, lowest = checkerboard_constants(3, radius, amplitude)
    assert abs(lg.rho_plus(split).value - value) <= 1e-13 * value
    assert abs(split.eigenvalues[split.plus][0] - lowest) <= 1e-13 * lowest
    if amplitude <= 3:
        assert abs(value - amplitude / 6) <= 1e-13 * value


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
    (sector, lam, coords), = split.plus_sectors()
    npos = split.size - split.negative_count
    assert sector.size == box.site_count and lam.size == npos
    assert coords.shape == (box.site_count, npos)
    _check_rho_plus(split)


def test_rho_plus_refuses_empty_positive_space():
    box = lg.BoxDomain(3, 2)
    split = _split(box, lg.constant_potential(3, -20.0), (-8.0, 1.0))
    assert split.negative_count == split.size
    with pytest.raises(InvalidInputError, match="nonempty X\\^\\+"):
        lg.rho_plus(split)


def test_kappa_refuses_even_sector_above_budget():
    # 18^3 = 5,832 even sites at R = 17, above DENSE_EIG_BUDGET = 5,000
    with pytest.raises(InvalidInputError, match="even sector has 5832 sites"):
        lg.best_hardy_constant(lg.BoxDomain(3, 17))
