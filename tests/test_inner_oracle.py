"""The slab-coordinate inner maximization against the full-coordinate oracle."""

import numpy as np
import pytest

import latticegap as lg
from latticegap import solver
from latticegap.energy import SiteTerms

from conftest import random_field
from oracle_inner import FullCoordinateInner
from oracle_split import unit_plus_direction

REL = 1e-12
CONFIG = lg.SolverConfig(seed=1, multistart=3)


@pytest.fixture(scope="module")
def problems(split_r3, split_r4):
    return {3: (split_r3, lg.compute_constants(split_r3)),
            4: (split_r4, lg.compute_constants(split_r4))}


def _rho(constants, fraction):
    return fraction * constants.rho_max


def _oracle(split, model, rho):
    weight = lg.EUCLIDEAN_WEIGHT.on_box(split.box) if rho > 0 else None
    return FullCoordinateInner(split, model, rho, weight)


def _with_status(result):
    """The oracle's result in `_inner_core`'s order, with the status
    `_inner_core` gives its reason."""
    *head, reason, bound = result
    status = ("converged" if reason is None
              else "rejected" if reason == "rejected" else "degenerate")
    return (*head, reason, status, bound)


def _close(a, b):
    return abs(a - b) <= REL * max(abs(b), 1e-300)


@pytest.mark.parametrize("radius", [3, 4])
@pytest.mark.parametrize("fraction", [0.0, 0.4])
def test_slab_inner_matches_oracle(problems, model, radius, fraction):
    split, constants = problems[radius]
    rho = _rho(constants, fraction)
    oracle = _oracle(split, model, rho)
    rng = np.random.default_rng(100 * radius + int(10 * fraction))
    for _ in range(3):
        w = unit_plus_direction(split, random_field(split.box, rng))
        wp = split.coords_of(w.values)[split.plus]
        slab = solver._Slab(SiteTerms(split, model, rho, lg.EUCLIDEAN_WEIGHT), wp)
        t_slab, vm_slab, value_slab, _, _, reason_slab, _, _ = solver._inner_core(
            slab, 1.0, np.zeros(split.negative_count))
        t, vm, value, _, _, reason, _ = oracle.maximize(
            wp, 1.0, np.zeros(split.negative_count), CONFIG)
        assert reason is None and reason_slab is None and t_slab > 1e-12
        assert _close(t_slab, t)
        assert np.linalg.norm(vm_slab - vm) <= REL * np.linalg.norm(vm)
        assert _close(value_slab, value)


@pytest.mark.parametrize("radius", [3, 4])
@pytest.mark.parametrize("fraction", [0.0, 0.4])
def test_solve_matches_oracle_inner(problems, model, monkeypatch, radius, fraction):
    split, constants = problems[radius]
    rho = _rho(constants, fraction)
    slab = lg.solve_ground_state(split, model, rho, CONFIG, constants=constants)

    oracle = _oracle(split, model, rho)
    monkeypatch.setattr(solver, "_inner_core",
                        lambda s, t, vm, ceiling, value_bound, res_cap: _with_status(
                            oracle.maximize(s.wp, t, vm, CONFIG, ceiling, value_bound,
                                            res_cap)))
    full = lg.solve_ground_state(split, model, rho, CONFIG, constants=constants)

    assert _close(slab.c_rho, full.c_rho)
    assert slab.start_index == full.start_index
    assert slab.outer_iterations == full.outer_iterations
