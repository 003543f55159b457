import dataclasses
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import latticegap as lg
from latticegap import solver
from latticegap.errors import (DegenerateProblemError, InvalidInputError,
                               NumericalError, RhoOutOfRangeError)
from latticegap.nonlinearity import CustomNonlinearity
from latticegap.energy import SiteTerms
from latticegap.solver import _inner_core, _Slab

import oracle_certificate
from conftest import (eigenvector_matrix, exit_in_worker_at, random_field,
                      use_cores)
from oracle_newton import critical_levels
from oracle_split import (rotated_in_eigenspaces, sector_eigenpairs,
                          unit_plus_direction)


@pytest.fixture(scope="module")
def quick_config():
    return lg.SolverConfig(seed=1, multistart=3)


@pytest.fixture(scope="module")
def rough_candidate(split_r2, model):
    """A converged candidate moved off to a residual near 1e-3, inside the
    polisher's entry threshold `polish_entry`."""
    base = lg.outer_minimize(split_r2, model, 0.0,
                             lg.SolverConfig(seed=1, multistart=3)).u.values
    direction = random_field(split_r2.box, np.random.default_rng(3)).values

    def moved(step):
        return lg.LatticeField(split_r2.box, base + step * direction)

    # the residual grows linearly in the step once it dominates J'(base)
    step = 1e-3 * 1e-4 / lg.nehari_residual(split_r2, model, moved(1e-4), 0.0).full
    start = moved(step)
    assert 5e-4 <= lg.nehari_residual(split_r2, model, start, 0.0).full <= 2e-3
    return start


@pytest.fixture(scope="module")
def ground_r2(split_r2, model):
    # box-global problem (no interior filter): the 5^3 ground state
    return lg.solve_ground_state(
        split_r2, model, 0.0, lg.SolverConfig(seed=1, multistart=6))


def lowest_plus_direction(split):
    i = split.negative_count
    return unit_plus_direction(
        split, lg.LatticeField(split.box, eigenvector_matrix(split)[:, i]))


def inner_max(split, model, w, t=1.0, vm=None):
    """`_inner_core` on the slab over the unit X^+ field w, started at
    (t, vm); returns (t, vm, value, residual, iterations, reason)."""
    terms = SiteTerms(split, model, 0.0, lg.EUCLIDEAN_WEIGHT)
    if vm is None:
        vm = np.zeros(split.negative_count)
    return _inner_core(_Slab(terms, split.to_coords(w)[split.plus]), t, vm)


class TestInnerMaximize:
    def test_converges_with_positive_t(self, split_r2, model, quick_config):
        w = lowest_plus_direction(split_r2)
        t, _, value, res, _, reason = inner_max(split_r2, model, w)
        assert reason is None
        assert t > 0
        assert res <= quick_config.inner_tol
        assert value > 0

    def test_value_dominates_scalar_reduction(self, split_r2, model):
        # the slab contains the ray {t w}, so the inner max dominates the
        # 1-d root-find maximum (1/4) t_scalar^2 for the quartic model
        w = lowest_plus_direction(split_r2)
        t_scalar = 1.0 / np.sqrt(np.sum(w.values ** 4))
        scalar_max = 0.25 * t_scalar ** 2
        value = inner_max(split_r2, model, w)[2]
        assert value >= scalar_max - 1e-10

    def test_warm_restart_is_fixed_point(self, split_r2, model):
        w = lowest_plus_direction(split_r2)
        t, vm, *_ = inner_max(split_r2, model, w)
        t2, vm2, _, _, iterations, _ = inner_max(split_r2, model, w,
                                                 t, vm.copy())
        em = eigenvector_matrix(split_r2)[:, split_r2.minus]
        assert iterations <= 2
        assert abs(t2 - t) <= 1e-10
        assert np.linalg.norm(em @ vm2 - em @ vm) <= 1e-10

    def test_multistart_ascent_agrees(self, split_r2, model):
        # different warm starts land on the same maximizer
        w = lowest_plus_direction(split_r2)
        em = eigenvector_matrix(split_r2)[:, split_r2.minus]
        t_ref, vm_ref, *_ = inner_max(split_r2, model, w)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v0 = lg.project(split_r2, random_field(split_r2.box, rng), "minus")
            t0 = rng.uniform(0.5, 3.0)
            t, vm, *_ = inner_max(split_r2, model, w, t0,
                                  split_r2.to_coords(v0)[split_r2.minus])
            assert abs(t - t_ref) <= 1e-8
            assert np.linalg.norm(em @ vm - em @ vm_ref) <= 1e-8

    def test_zero_nonlinearity_degenerate(self, split_r2):
        # indefinite quadratic alone admits no interior maximizer
        w = lowest_plus_direction(split_r2)
        reason = inner_max(split_r2, lg.ZeroNonlinearity(), w)[5]
        assert reason is not None


class TestOuterMinimize:
    def test_monotone_trace(self, split_r3, model, quick_config):
        result = lg.outer_minimize(split_r3, model, 0.0, quick_config)
        levels = [rec["level"] for rec in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))
        assert result.residual_full <= quick_config.outer_tol * (
            1 + lg.lp_norm(result.u, 2))

    def test_level_agreement_or_flag(self, split_r3, model):
        cfg = lg.SolverConfig(seed=2, multistart=5)
        result = lg.outer_minimize(split_r3, model, 0.0, cfg)
        levels = [l for l in result.diagnostics["start_levels"] if l is not None]
        spread = (max(levels) - min(levels)) / max(1.0, abs(min(levels)))
        if not result.diagnostics["distinct_levels_flag"]:
            assert spread <= 1e-6
        else:
            assert spread > 1e-6

    def test_boundary_filter_selects_interior(self, split_r3, model):
        cfg = lg.SolverConfig(seed=2, multistart=5, max_boundary_mass=0.25)
        result = lg.outer_minimize(split_r3, model, 0.0, cfg)
        assert lg.boundary_mass_fraction(split_r3.box, result.u.values) <= 0.25

    def test_all_degenerate_raises(self, split_r2, quick_config):
        with pytest.raises(DegenerateProblemError):
            lg.outer_minimize(split_r2, lg.ZeroNonlinearity(), 0.0, quick_config)


class TestPolishNewton:
    def test_reaches_polish_tolerance(self, split_r2, model, rough_candidate, quick_config):
        result = lg.polish_newton(split_r2, model, 0.0, rough_candidate)
        assert result.residual_full <= quick_config.polish_tol * (
            1 + lg.lp_norm(result.u, 2))

    def test_exact_start_returns_unchanged(self, split_r2, model, rough_candidate):
        polished = lg.polish_newton(split_r2, model, 0.0, rough_candidate)
        again = lg.polish_newton(split_r2, model, 0.0, polished.u)
        assert again.polish_iterations == 0
        np.testing.assert_array_equal(again.u.values, polished.u.values)

    def test_quadratic_contraction(self, split_r2, model, rough_candidate):
        # r_{k+1} <= C r_k^2 along the tail of the iteration, ignoring the
        # floor where rounding dominates
        result = lg.polish_newton(split_r2, model, 0.0, rough_candidate)
        history = [r for r in result.polish_residuals if r > 1e-13]
        assert len(history) >= 2
        ratios = [b / a ** 2 for a, b in zip(history, history[1:])]
        assert max(ratios[-3:]) <= 50.0

    def test_entry_threshold_enforced(self, split_r2, model):
        far = random_field(split_r2.box, np.random.default_rng(7))
        with pytest.raises(InvalidInputError):
            lg.polish_newton(split_r2, model, 0.0, far)


class TestSolveGroundState:
    def test_exit_residuals(self, split_r2, model, ground_r2):
        l2 = lg.lp_norm(ground_r2.u, 2)
        assert ground_r2.residual_full <= 1e-8 * (1 + l2)
        assert abs(ground_r2.residual_along_u) <= 1e-8 * (1 + l2 ** 2)
        assert ground_r2.residual_along_minus <= 1e-8
        res = lg.nehari_residual(split_r2, model, ground_r2.u, 0.0)
        assert res.full == ground_r2.residual_full

    def test_positive_level_above_sphere_floor(self, ground_r2):
        assert ground_r2.c_rho > 0
        assert ground_r2.c_rho >= ground_r2.diagnostics["sphere_floor"] > 0

    def test_state_below_sphere_floor_refused(self, monkeypatch, split_r2,
                                              model, quick_config):
        # the polish returns 0.05 u: its residuals pass, its level does not
        polish = solver.polish_newton

        def shrunk(*args, **kwargs):
            result = polish(*args, **kwargs)
            u = lg.LatticeField(split_r2.box, 0.05 * result.u.values)
            level = lg.evaluate_energy(split_r2, model, u, 0.0).value
            return dataclasses.replace(result, u=u, c_rho=level)

        monkeypatch.setattr(solver, "polish_newton", shrunk)
        with pytest.raises(lg.PostConditionError, match="below the sphere floor"):
            lg.solve_ground_state(split_r2, model, 0.0, quick_config)

    @pytest.mark.parametrize("broken", [
        "full residual", "residual along u", "residual along X^-",
        "u has no X^+ component", "not positive", "boundary mass fraction"])
    def test_exit_check_refuses_a_state_that_breaks_it(
            self, monkeypatch, split_r2, model, ground_r2, broken):
        # the patched polish hands over a state that breaks one exit check
        # (with no X^+ part or no positive level it breaks the floor too)
        polish = solver.polish_newton
        residuals = {"full residual": "residual_full",
                     "residual along u": "residual_along_u",
                     "residual along X^-": "residual_along_minus"}

        def breaking(split, model, rho, u0, weight):
            result = polish(split, model, rho, u0, weight)
            if broken in residuals:
                return dataclasses.replace(result, **{residuals[broken]: 1.0})
            if broken == "not positive":
                return dataclasses.replace(result, c_rho=0.0)
            if broken == "boundary mass fraction":  # the corner ground state
                return polish(split, model, rho, ground_r2.u, weight)
            coords = split.to_coords(result.u)
            u = lg.LatticeField(split.box, split.values_of(coords[split.minus], "minus"))
            return dataclasses.replace(
                result, u=u, c_rho=lg.evaluate_energy(split, model, u, rho).value)

        monkeypatch.setattr(solver, "polish_newton", breaking)
        # the filter admits the centred candidate (boundary mass 0.27) and
        # refuses the corner state (0.87)
        config = lg.SolverConfig(seed=1, multistart=3, max_boundary_mass=0.5)
        with pytest.raises(lg.PostConditionError, match=re.escape(broken)):
            lg.solve_ground_state(split_r2, model, 0.0, config)

    def test_power_level_identity(self, ground_r2):
        # c = (1/2 - 1/p) ||u||_p^p at any critical point of the quartic model
        expected = 0.25 * lg.lp_norm(ground_r2.u, 4) ** 4
        assert abs(ground_r2.c_rho - expected) <= 1e-8 * max(1.0, expected)

    def test_matches_brute_force_oracle(self, split_r2, ground_r2):
        # least nontrivial critical level from 50 independent Newton starts
        levels = critical_levels(split_r2.box, split_r2.operator, p=4.0,
                                 n_starts=50, seed=0)
        assert levels, "oracle found no nontrivial critical points"
        assert abs(min(levels) - ground_r2.c_rho) <= 1e-8

    def test_maximality_certificate_holds(self, split_r2, model, ground_r2):
        ok, worst = lg.maximality_certificate(split_r2, model, ground_r2.u, 0.0,
                                              seed=11)
        assert ok, f"certificate violated by {worst}"

    def test_invalid_model_rejected_upfront(self, split_r2):
        with pytest.raises(lg.ModelHypothesisError):
            lg.solve_ground_state(split_r2, lg.ZeroNonlinearity(), 0.0,
                                  lg.SolverConfig(seed=1, multistart=2))

    def test_custom_model_without_primitive_rejected(self, split_r2):
        # the solver's many F calls need a closed-form primitive; a model
        # without one is refused at construction, before any solve
        with pytest.raises(InvalidInputError, match="F_fn"):
            model = CustomNonlinearity(
                f_fn=lambda u: u ** 3, df_fn=lambda u: 3.0 * u ** 2,
                growth_a=1.0, growth_p=4.0, gap_b=0.25, gap_q=4.0)
            lg.solve_ground_state(split_r2, model, 0.0,
                                  lg.SolverConfig(seed=1, multistart=1))

    @pytest.mark.parametrize("rho", [float("nan"), -0.1])
    def test_bad_rho_rejected(self, split_r2, model, rho):
        with pytest.raises(InvalidInputError, match="rho"):
            lg.solve_ground_state(split_r2, model, rho)

    def test_rho_above_cap_rejected(self, split_r3, model):
        constants = lg.compute_constants(split_r3)
        with pytest.raises(RhoOutOfRangeError):
            lg.solve_ground_state(split_r3, model, constants.rho_max,
                                  lg.SolverConfig(seed=1), constants=constants)

    def test_warm_start_reproduces_solution(self, split_r2, model, ground_r2):
        cfg = lg.SolverConfig(seed=9, multistart=1)
        warm = lg.solve_ground_state(split_r2, model, 0.0, cfg,
                                     warm_start=ground_r2.u)
        assert abs(warm.c_rho - ground_r2.c_rho) <= 1e-9
        assert np.linalg.norm(warm.u.values - ground_r2.u.values) <= 1e-6

    def test_polishes_the_candidate_once(self, monkeypatch, split_r2, model,
                                         quick_config):
        # box-global at R = 2 this seed ends at a corner state, peaked off
        # the origin; the state is the polish of the outer candidate as is
        calls = []
        polish = solver.polish_newton

        def counted(*args, **kwargs):
            calls.append(args)
            return polish(*args, **kwargs)

        monkeypatch.setattr(solver, "polish_newton", counted)
        result = lg.solve_ground_state(split_r2, model, 0.0, quick_config)
        assert len(calls) == 1
        assert result.c_rho == 1.046757506819635
        candidate = lg.outer_minimize(split_r2, model, 0.0, quick_config)
        expected = polish(split_r2, model, 0.0, candidate.u)
        assert result.u.values.tobytes() == expected.u.values.tobytes()
        assert result.c_rho == expected.c_rho
        assert result.polish_iterations == expected.polish_iterations
        assert result.polish_residuals == expected.polish_residuals

    def test_run_log_schema(self, ground_r2):
        assert ground_r2.trace, "no outer trace recorded"
        for record in ground_r2.trace:
            assert set(record) == {"iter", "level", "residual_full",
                                   "residual_minus", "t"}


class TestSolverConfig:
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5])
    def test_max_boundary_mass_range(self, value):
        with pytest.raises(InvalidInputError, match="max_boundary_mass"):
            lg.SolverConfig(max_boundary_mass=value)

    def test_max_boundary_mass_edges_accepted(self):
        assert lg.SolverConfig(max_boundary_mass=None).max_boundary_mass is None
        assert lg.SolverConfig(max_boundary_mass=1.0).max_boundary_mass == 1.0

    # the line-search constants lie in (0, 1) and are not settable
    @pytest.mark.parametrize("value", [0.0, 1.0, 2.0])
    def test_backtrack_shrink_range(self, value):
        assert 0.0 < lg.SolverConfig().backtrack_shrink == 0.5 < 1.0
        with pytest.raises(TypeError, match="backtrack_shrink"):
            lg.SolverConfig(backtrack_shrink=value)

    @pytest.mark.parametrize("value", [0.0, 1.0, -1e-4])
    def test_armijo_range(self, value):
        assert 0.0 < lg.SolverConfig().armijo == 1e-4 < 1.0
        with pytest.raises(TypeError, match="armijo"):
            lg.SolverConfig(armijo=value)

    # the tolerances, iteration caps and certificate settings are constants
    # in the ranges the settings were once validated against, and are not
    # settable either
    @pytest.mark.parametrize("name", ["max_inner", "max_outer", "max_polish"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_iteration_caps_positive(self, name, value):
        assert getattr(lg.SolverConfig, name) >= 1
        with pytest.raises(TypeError, match=name):
            lg.SolverConfig(**{name: value})

    def test_boundary_layers_positive(self):
        assert lg.SolverConfig.boundary_layers >= 1
        with pytest.raises(TypeError, match="boundary_layers"):
            lg.SolverConfig(boundary_layers=0)

    @pytest.mark.parametrize("name", ["inner_tol", "outer_tol", "polish_tol"])
    def test_nan_tolerance_rejected(self, name):
        assert getattr(lg.SolverConfig, name) > 0.0
        assert lg.SolverConfig.inner_tol <= lg.SolverConfig.outer_tol
        with pytest.raises(TypeError, match=name):
            lg.SolverConfig(**{name: float("nan")})

    @pytest.mark.parametrize("name,zero_ok", [("certificate_tol", True),
                                              ("polish_entry", False)])
    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_meaningless_step_tolerance_rejected(self, name, zero_ok, value):
        constant = getattr(lg.SolverConfig, name)
        assert constant >= 0.0 if zero_ok else constant > 0.0
        with pytest.raises(TypeError, match=name):
            lg.SolverConfig(**{name: value})

    def test_certificate_samples_nonnegative(self):
        assert lg.SolverConfig.certificate_samples >= 0
        with pytest.raises(TypeError, match="certificate_samples"):
            lg.SolverConfig(certificate_samples=-1)

    def test_boundary_layers_below_radius(self, potential, band_table, model):
        box = lg.BoxDomain(3, lg.SolverConfig.boundary_layers)
        split = lg.spectral_split(box, lg.assemble_operator(box, potential),
                                  band_table.gap)
        with pytest.raises(InvalidInputError, match="below the box radius"):
            lg.solve_ground_state(split, model, 0.0,
                                  lg.SolverConfig(seed=1, multistart=2))


@pytest.fixture(scope="module")
def constants_r3(split_r3):
    return lg.compute_constants(split_r3)


def _interior_config(seed):
    return lg.SolverConfig(seed=seed, multistart=5, max_boundary_mass=0.25)


@pytest.fixture(scope="module")
def ground_r3(split_r3, model, constants_r3):
    """Interior ground states at R = 3 by coupling fraction of rho_max."""
    return {frac: lg.solve_ground_state(split_r3, model, frac * constants_r3.rho_max,
                                        _interior_config(7), constants=constants_r3)
            for frac in (0.0, 0.4)}


FORK = "fork" in multiprocessing.get_all_start_methods()


def _fields_equal(a, b):
    """Every field of two results equal, the field values byte for byte."""
    assert a.u.box == b.u.box
    assert a.u.values.tobytes() == b.u.values.tobytes()
    for f in dataclasses.fields(a):
        if f.name != "u":
            assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestStartLoop:
    """The starts run in forked worker processes (two here, whatever the
    machine has) or, on one core, one after another in-process; results and
    the first failure are taken in start order either way."""

    @pytest.mark.skipif(not FORK, reason="the starts run in-process without fork")
    def test_first_failure_in_start_order(self, monkeypatch, tmp_path,
                                          split_r3, model):
        # start 3 fails at once; start 1 fails only once start 3 has, yet
        # start 1's error is the one raised
        use_cores(monkeypatch, 2)
        original = solver._outer_single
        marker = tmp_path / "start3-failed"

        def failing(terms, wp, index, warm=None):
            if index == 3:
                marker.touch()
                raise NumericalError("start 3 failed")
            if index == 1:
                deadline = time.monotonic() + 60.0
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise NumericalError("start 1 failed")
            return original(terms, wp, index, warm)

        monkeypatch.setattr(solver, "_outer_single", failing)
        with pytest.raises(NumericalError, match="start 1 failed"):
            lg.outer_minimize(split_r3, model, 0.0, _interior_config(7))
        assert marker.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("frac", [0.0, 0.4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_pool_matches_in_process(self, monkeypatch, split_r3, model,
                                     constants_r3, seed, frac):
        rho = frac * constants_r3.rho_max
        cfg = _interior_config(seed)
        results = {}
        for cores in (2, 1):
            use_cores(monkeypatch, cores)
            results[cores] = (
                lg.outer_minimize(split_r3, model, rho, cfg),
                lg.solve_ground_state(split_r3, model, rho, cfg,
                                      constants=constants_r3))
            assert multiprocessing.active_children() == []
        for pooled, in_process in zip(results[2], results[1]):
            _fields_equal(pooled, in_process)
        # the per-start work counts, in start order, repeat on a rerun
        use_cores(monkeypatch, 2)
        rerun = lg.outer_minimize(split_r3, model, rho, cfg)
        for key in ("start_outer_iterations", "start_inner_iterations",
                    "start_line_search_trials"):
            counts = results[2][0].diagnostics[key]
            assert len(counts) == cfg.multistart
            assert all(isinstance(c, int) and c >= 0 for c in counts)
            assert counts == results[1][0].diagnostics[key] == rerun.diagnostics[key]

    @pytest.mark.skipif(not FORK, reason="the starts run in-process without fork")
    def test_dead_worker_is_a_numerical_error(self, monkeypatch, split_r3, model):
        use_cores(monkeypatch, 2)
        monkeypatch.setattr(solver, "_outer_single", exit_in_worker_at(2))
        with pytest.raises(NumericalError, match="start [0-2]: a multistart "
                                                 "worker process died"):
            lg.outer_minimize(split_r3, model, 0.0, _interior_config(7))
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the workers' states from /proc")
    def test_workers_exit_with_a_killed_caller(self, tmp_path):
        # the caller is killed while both workers are inside a start
        script = textwrap.dedent("""
            import os, sys, time
            import latticegap as lg
            from latticegap import solver

            def stuck(terms, wp, index, warm=None):
                open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
                time.sleep(300)

            box = lg.BoxDomain(3, 2)
            potential = lg.checkerboard_potential(3, 1.0)
            split = lg.spectral_split(
                box, lg.assemble_operator(box, potential),
                lg.bloch_band_edges(potential, grid=8).gap)
            solver._outer_single = stuck
            os.sched_getaffinity = lambda pid: {0, 1}
            lg.outer_minimize(split, lg.PowerNonlinearity(4.0), 0.0,
                              lg.SolverConfig(multistart=3))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        caller = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                                  env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2 and time.monotonic() < deadline:
                assert caller.poll() is None
                time.sleep(0.05)
                workers = [int(path.name) for path in tmp_path.iterdir()]
            assert len(workers) == 2
            caller.kill()
            caller.wait(timeout=30.0)
            deadline = time.monotonic() + 30.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            if caller.poll() is None:
                caller.kill()
                caller.wait(timeout=30.0)
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)


def _running(pid):
    """Whether process `pid` exists and is not a zombie.  An orphan that
    exited stays a zombie until its new parent reaps it."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestCertificateOracle:
    """The batched certificate against the per-sample loop of
    `oracle_certificate`: `ok` equal, levels to 1e-12 relative."""

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("frac", [0.0, 0.4])
    def test_maximality_certificate(self, split_r3, model, constants_r3,
                                    ground_r3, frac, scale):
        # at the ground state the certificate holds; at half of it, t = 2 wins
        rho = frac * constants_r3.rho_max
        u = lg.LatticeField(split_r3.box, scale * ground_r3[frac].u.values)
        ok, worst = lg.maximality_certificate(split_r3, model, u, rho, seed=3578)
        ref_ok, ref_worst = oracle_certificate.maximality_certificate(
            split_r3, model, u, rho, 200, 3578, 1e-6, lg.EUCLIDEAN_WEIGHT)
        assert ok == ref_ok == (scale == 1.0)
        assert abs(worst - ref_worst) <= 1e-12 * abs(ref_worst)


class TestSphereFloor:
    """The closed-form floor: near its optimum for the power model, and
    below J on the X^+ sphere where that optimum is reached."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("alpha", [1.0, 0.6, 0.1])
    def test_power_model_near_optimum(self, split_r3, p, alpha):
        # lambda_1^+ = |c| = 1 on the checkerboard; the bound
        # alpha d^2 / 2 - d^p / p peaks at d^(p-2) = alpha
        floor = solver._sphere_floor(split_r3, lg.PowerNonlinearity(p), alpha)
        optimum = alpha * (p - 2.0) / (2.0 * p) * alpha ** (2.0 / (p - 2.0))
        assert 0.99 * optimum <= floor <= optimum

    @pytest.mark.parametrize("radius", [3, 4])
    @pytest.mark.parametrize("frac", [0.0, 0.4, 0.9])
    def test_below_energy_on_the_sphere(self, problems_r34, model, radius, frac):
        split, constants = problems_r34[radius]
        alpha = 1.0 - frac
        floor = solver._sphere_floor(split, model, alpha)
        # p = 4: the optimal d^2 is alpha lambda_1^+, at the X^+ norm d sqrt(lambda_1^+)
        lam = split.plus_eigenvalues[0]
        norm = np.sqrt(alpha) * lam
        rng = np.random.default_rng(radius)
        coords = split.coords_of(rng.standard_normal((split.size, 400)), "plus")
        coords *= norm / np.sqrt(split.plus_eigenvalues @ coords ** 2)
        terms = SiteTerms(split, model, frac * constants.rho_max, lg.EUCLIDEAN_WEIGHT)
        levels = [0.5 * norm ** 2 - terms.energy(v)
                  for v in split.values_of(coords, "plus").T]
        assert floor > 0.0
        assert min(levels) >= floor


def _split_from(split, eigenpairs):
    return lg.spectral_split(split.box, split.operator, split.gap, eigenpairs)


class TestBasisIndependence:
    """The random starts and the certificate's samples are drawn in site
    space, so a split built from other eigenpairs of the same operator gives
    the same solves and certificates.  Start 0,
    the lowest X^+ eigenvector, is one vector of a possibly degenerate
    eigenspace (19-fold at R = 6) and is left out of the comparison.  The
    start levels of a solve are those of its `outer_minimize`."""

    @pytest.mark.parametrize("max_boundary_mass", [None, 0.25],
                             ids=["box-global", "interior"])
    @pytest.mark.parametrize("seed", [0, 7, 1009])
    @pytest.mark.parametrize("frac", [0.0, 0.4])
    def test_evr_split_gives_the_same_solve(self, split_r3, model, constants_r3,
                                            frac, seed, max_boundary_mass):
        oracle = _split_from(split_r3, sector_eigenpairs(
            split_r3.box, split_r3.operator, "evr"))
        config = lg.SolverConfig(seed=seed, multistart=5,
                                 max_boundary_mass=max_boundary_mass)
        rho = frac * constants_r3.rho_max
        got, want = (lg.solve_ground_state(split, model, rho, config,
                                           constants=constants_r3)
                     for split in (split_r3, oracle))
        got_levels = got.diagnostics["start_levels"][1:]
        want_levels = want.diagnostics["start_levels"][1:]
        assert np.allclose(got_levels, want_levels, rtol=0.0, atol=1e-10)
        assert abs(got.c_rho - want.c_rho) <= 1e-12 * max(1.0, abs(want.c_rho))

    def test_rotated_eigenspaces_give_the_same_random_starts(self, split_r3,
                                                             model):
        # fails if the random starts are drawn in eigencoordinates
        eigenpairs = rotated_in_eigenspaces(
            sector_eigenpairs(split_r3.box, split_r3.operator, "evd"),
            np.random.default_rng(5))
        config = lg.SolverConfig(seed=7, multistart=5)
        got, want = (lg.outer_minimize(split, model, 0.0, config)
                     for split in (split_r3, _split_from(split_r3, eigenpairs)))
        assert np.allclose(got.diagnostics["start_levels"][1:],
                           want.diagnostics["start_levels"][1:],
                           rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("frac", [0.0, 0.4])
    def test_rotated_eigenspaces_give_the_same_certificate(
            self, split_r3, model, constants_r3, ground_r3, frac, scale):
        # fails if the certificate's X^- samples are drawn in eigencoordinates
        rotated = _split_from(split_r3, rotated_in_eigenspaces(
            sector_eigenpairs(split_r3.box, split_r3.operator, "evd"),
            np.random.default_rng(5)))
        rho = frac * constants_r3.rho_max
        u = lg.LatticeField(split_r3.box, scale * ground_r3[frac].u.values)
        (ok, worst), (want_ok, want) = (
            lg.maximality_certificate(split, model, u, rho, seed=3578)
            for split in (split_r3, rotated))
        assert ok == want_ok == (scale == 1.0)
        assert abs(worst - want) <= 1e-12 * abs(want)


# Selected levels (and start, where no other start shares that level to 1e-8)
# recorded before the outer descent took Barzilai-Borwein steps and the inner
# loop tried Newton-CG from its first iterate, keyed by (R, fraction of
# rho_max, max_boundary_mass, seed).  A step rule changes the path, not the
# critical points the starts reach.
SELECTED = {
    (3, 0.0, None, 0): (1.536888905497609, None),
    (3, 0.0, None, 7): (1.3305542711127982, 4),
    (3, 0.0, None, 1009): (1.5368889054976078, None),
    (3, 0.0, 0.25, 0): (1.8824777482570432, 1),
    (3, 0.0, 0.25, 7): (1.8824777482570432, 1),
    (3, 0.0, 0.25, 1009): (1.8824777482570432, 1),
    (3, 0.4, None, 0): (1.509491421349867, 3),
    (3, 0.4, None, 7): (1.3124019669440325, 4),
    (3, 0.4, None, 1009): (1.5096181838235883, None),
    (3, 0.4, 0.25, 0): (1.6536958917594051, 1),
    (3, 0.4, 0.25, 7): (1.6536958917594051, 1),
    (3, 0.4, 0.25, 1009): (1.6536958917594051, 1),
    (4, 0.0, None, 0): (1.0539296391056034, 3),
    (4, 0.0, None, 7): (1.3218447597169003, 2),
    (4, 0.0, None, 1009): (1.5353852035923539, 4),
    (4, 0.0, 0.25, 0): (1.8225735801162541, 1),
    (4, 0.0, 0.25, 7): (1.8225735801162541, 1),
    (4, 0.0, 0.25, 1009): (1.791878970843255, 2),
    (4, 0.4, None, 0): (1.0472387052587668, 3),
    (4, 0.4, None, 7): (1.3128384613956727, 2),
    (4, 0.4, None, 1009): (1.5249116427343383, 4),
    (4, 0.4, 0.25, 0): (1.6307018882806945, 1),
    (4, 0.4, 0.25, 7): (1.6307018882806945, 1),
    (4, 0.4, 0.25, 1009): (1.6307018882806945, 1),
}


@pytest.fixture(scope="module")
def problems_r34(split_r3, split_r4, constants_r3):
    return {3: (split_r3, constants_r3),
            4: (split_r4, lg.compute_constants(split_r4))}


@pytest.mark.parametrize("radius, frac, max_boundary_mass, seed", list(SELECTED))
def test_step_rule_reaches_the_same_states(problems_r34, model, radius, frac,
                                           max_boundary_mass, seed):
    split, constants = problems_r34[radius]
    level, start = SELECTED[radius, frac, max_boundary_mass, seed]
    config = lg.SolverConfig(seed=seed, multistart=5,
                             max_boundary_mass=max_boundary_mass)
    got = lg.solve_ground_state(split, model, frac * constants.rho_max, config,
                                constants=constants)
    assert abs(got.c_rho - level) <= 1e-12 * level
    if start is not None:
        assert got.start_index == start
