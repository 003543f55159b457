"""The anti-continuum limit as an oracle of the solver.

With the default shift the checkerboard operator is A = c S - Adj, S the
sublattice sign.  As the amplitude c grows, each critical point of the
quartic model concentrates on one site of the S = +1 sublattice (MacKay &
Aubry, Nonlinearity 7, 1994; Pankov, Nonlinearity 19, 2006).  Put u =
sqrt(c) v and eps = 1/c, so that S v - eps Adj v = v^3, and expand around
the delta at a site with 2N in-box neighbours: at a critical point the
level is c^2/4 sum v^4, which gives

    c_0 = c^2/4 + N - (6N^2 - 5N) / (2 c^2) + O(c^-4),

at N = 3 the three terms c^2/4 + 3 - 19.5/c^2.  The c^-4 coefficient is
not derived; the solver's centred states put it near 375, and the residual
of the three terms shrinks about 16x per doubling of c.
"""

import numpy as np
import pytest

import latticegap as lg

AMPLITUDES = (16.0, 32.0, 64.0, 128.0, 256.0)


@pytest.fixture(scope="module")
def centred_levels():
    """The centred interior state at each amplitude: (c_0, peak site)."""
    box = lg.BoxDomain(3, 3)
    model = lg.PowerNonlinearity(4.0)
    config = lg.SolverConfig(seed=7, multistart=5, max_boundary_mass=0.25)
    found = {}
    for c in AMPLITUDES:
        potential = lg.checkerboard_potential(3, amplitude=c)
        split = lg.spectral_split(box, lg.assemble_operator(box, potential),
                                  lg.bloch_band_edges(potential).gap)
        result = lg.solve_ground_state(split, model, 0.0, config)
        peak = box.sites[int(np.argmax(np.abs(result.u.values)))]
        found[c] = (result.c_rho, tuple(int(x) for x in peak))
    return found


def residual(c, level):
    """The level minus the three known terms of its expansion."""
    return level - c * c / 4.0 - 3.0 + 19.5 / (c * c)


@pytest.mark.parametrize("c", AMPLITUDES)
def test_state_peaks_at_the_origin(centred_levels, c):
    assert centred_levels[c][1] == (0, 0, 0)


@pytest.mark.parametrize("c", AMPLITUDES)
def test_level_follows_the_expansion_to_c_minus_4(centred_levels, c):
    assert 300.0 <= residual(c, centred_levels[c][0]) * c ** 4 <= 400.0


@pytest.mark.parametrize("c", AMPLITUDES[1:-1])
def test_residual_shrinks_about_sixteenfold_per_doubling(centred_levels, c):
    ratio = (residual(c, centred_levels[c][0])
             / residual(2 * c, centred_levels[2 * c][0]))
    assert 12.0 <= ratio <= 17.0
