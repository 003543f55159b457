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
of the three terms shrinks about 16x per doubling of c.  At a wall site
with k < 2N in-box neighbours the level is c^2/4 + k/2 + O(c^-2), so its
residual shrinks about 4x per doubling; these states are reached by one
warm start from the delta at the site, which also checks that the R = 4
centred level is R = 3's.
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



WALL_AMPLITUDES = (16.0, 32.0, 64.0)
# sites of the R = 4 box on the S = +1 sublattice with their in-box
# neighbour counts k: a corner, an edge, a face and the centre
SITES = {(4, 4, 4): 3, (4, 4, 0): 4, (4, 0, 0): 5, (0, 0, 0): 6}
# the centre is solved at the amplitudes of its comparison with R = 3
SOLVED = [(c, site) for c in WALL_AMPLITUDES for site, k in SITES.items()
          if k < 6 or c <= 32.0]


@pytest.fixture(scope="module")
def site_levels():
    """The R = 4 state warm-started from sqrt(c) times the delta at each
    site: {(c, site): (level, peak site)}."""
    box = lg.BoxDomain(3, 4)
    model = lg.PowerNonlinearity(4.0)
    config = lg.SolverConfig(seed=7, multistart=1)
    found = {}
    for c in WALL_AMPLITUDES:
        potential = lg.checkerboard_potential(3, amplitude=c)
        split = lg.spectral_split(box, lg.assemble_operator(box, potential),
                                  lg.bloch_band_edges(potential).gap)
        for site in [s for amplitude, s in SOLVED if amplitude == c]:
            start = np.zeros(split.size)
            start[box.index_of(np.array(site))] = np.sqrt(c)
            result = lg.solve_ground_state(split, model, 0.0, config,
                                           warm_start=lg.LatticeField(box, start))
            peak = box.sites[int(np.argmax(np.abs(result.u.values)))]
            found[c, site] = (result.c_rho, tuple(int(x) for x in peak))
    return found


@pytest.mark.parametrize("c, site", SOLVED)
def test_state_peaks_at_its_seed_site(site_levels, c, site):
    assert site_levels[c, site][1] == site


@pytest.mark.parametrize("c", WALL_AMPLITUDES[:-1])
@pytest.mark.parametrize("site", [site for site, k in SITES.items() if k < 6])
def test_wall_residual_shrinks_about_fourfold_per_doubling(site_levels, site, c):
    def wall_residual(c):
        return site_levels[c, site][0] - c * c / 4.0 - SITES[site] / 2.0

    assert 3.0 <= wall_residual(c) / wall_residual(2 * c) <= 5.0


@pytest.mark.parametrize("c", WALL_AMPLITUDES[:-1])
def test_centred_level_does_not_depend_on_the_radius(site_levels, centred_levels, c):
    assert abs(site_levels[c, (0, 0, 0)][0] - centred_levels[c][0]) <= 1e-7
