"""Shared fixtures: the checkerboard test problem at several box radii.

Session scope keeps the dense eigendecompositions (the expensive part) to
one per radius.  `timings` records fixture build times so the acceptance
tests can account for shared setup against their runtime budgets.
"""

import os
import time

import numpy as np
import pytest

import latticegap as lg
from latticegap import solver

TIMINGS: dict[str, float] = {}


def _timed(name, fn):
    t0 = time.perf_counter()
    out = fn()
    TIMINGS[name] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def timings():
    return TIMINGS


@pytest.fixture(scope="session")
def potential():
    return lg.checkerboard_potential(3, 1.0)


@pytest.fixture(scope="session")
def band_table(potential):
    return _timed("band_table", lambda: lg.bloch_band_edges(potential, grid=8))


def _make_split(radius, potential, table):
    box = lg.BoxDomain(3, radius)
    return lg.spectral_split(box, lg.assemble_operator(box, potential), table.gap)


@pytest.fixture(scope="session")
def split_r2(potential, band_table):
    return _timed("split_r2", lambda: _make_split(2, potential, band_table))


@pytest.fixture(scope="session")
def split_r3(potential, band_table):
    return _timed("split_r3", lambda: _make_split(3, potential, band_table))


@pytest.fixture(scope="session")
def split_r4(potential, band_table):
    return _timed("split_r4", lambda: _make_split(4, potential, band_table))


@pytest.fixture(scope="session")
def split_r6(potential, band_table):
    return _timed("split_r6", lambda: _make_split(6, potential, band_table))


@pytest.fixture(scope="session")
def model():
    return lg.PowerNonlinearity(4.0)


@pytest.fixture(scope="session")
def constants_r6(split_r6):
    return _timed("constants_r6", lambda: lg.compute_constants(split_r6))


@pytest.fixture(scope="session")
def ground_config():
    # interior-state filter on: the experiments emulate the infinite-lattice
    # soliton, not the boundary-pinned box minimizers
    return lg.SolverConfig(seed=7, multistart=5, max_boundary_mass=0.25)


@pytest.fixture(scope="session")
def ground_r6(split_r6, model, ground_config):
    return _timed("ground_r6", lambda: lg.solve_ground_state(
        split_r6, model, 0.0, ground_config))


@pytest.fixture(scope="session")
def sweep_r6(split_r6, model, ground_config, constants_r6):
    rho_max = constants_r6.rho_max
    plan = lg.SweepPlan(tuple(f * rho_max for f in (0.4, 0.2, 0.1, 0.05)) + (0.0,))
    return _timed("sweep_r6", lambda: lg.sweep_rho(
        plan, split_r6, model, ground_config, constants=constants_r6))


def random_field(box, rng):
    return lg.LatticeField(box, rng.standard_normal(box.site_count))


def eigenvector_matrix(split):
    """The dense n x n eigenvector matrix E, column i for eigencoordinate i.
    The split keeps only its parity-sector blocks, so tests that read E form
    it here."""
    return split.values_of(np.eye(split.size))


def use_cores(monkeypatch, cores):
    """Let the solver see `cores` cores: two or more run the multistart in
    forked workers where the platform can fork, one runs it in-process."""
    monkeypatch.setattr(solver.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)


def exit_in_worker_at(index):
    """An `_outer_single` that kills the worker process running start
    `index` and runs every other start as usual.  In the calling process it
    raises instead, so a start that is not run in a worker cannot end the
    test run."""
    original = solver._outer_single
    caller = os.getpid()

    def run(terms, wp, start, warm=None):
        if start == index:
            if os.getpid() == caller:
                raise AssertionError("start ran in the calling process")
            os._exit(1)
        return original(terms, wp, start, warm)

    return run
