import numpy as np
import pytest

import latticegap as lg
from latticegap.errors import (DegenerateProblemError, InvalidInputError,
                               RhoOutOfRangeError)
from latticegap.nonlinearity import CustomNonlinearity
from latticegap.solver import _inner_core, _Slab, _Workspace

from conftest import random_field
from oracle_newton import critical_levels


@pytest.fixture(scope="module")
def quick_config():
    return lg.SolverConfig(seed=1, multistart=3)


@pytest.fixture(scope="module")
def rough_candidate(split_r2, model):
    cfg = lg.SolverConfig(seed=1, multistart=3, outer_tol=1e-3)
    return lg.outer_minimize(split_r2, model, 0.0, cfg)


@pytest.fixture(scope="module")
def ground_r2(split_r2, model):
    # box-global problem (no interior filter): the 5^3 ground state
    return lg.solve_ground_state(
        split_r2, model, 0.0, lg.SolverConfig(seed=1, multistart=6))


def lowest_plus_direction(split):
    i = split.negative_count
    return lg.unit_plus_direction(
        split, lg.LatticeField(split.box, split.eigenvectors[:, i]))


def inner_max(split, model, w, cfg, t=1.0, vm=None):
    """`_inner_core` on the slab over the unit X^+ field w, started at
    (t, vm); returns (t, vm, value, residual, iterations, reason)."""
    ws = _Workspace(split, model, 0.0, lg.EUCLIDEAN_WEIGHT)
    if vm is None:
        vm = np.zeros(split.negative_count)
    return _inner_core(_Slab(ws, split.to_coords(w)[split.plus]), t, vm, cfg)


class TestInnerMaximize:
    def test_converges_with_positive_t(self, split_r2, model, quick_config):
        w = lowest_plus_direction(split_r2)
        t, _, value, res, _, reason = inner_max(split_r2, model, w, quick_config)
        assert reason is None
        assert t > 0
        assert res <= quick_config.inner_tol
        assert value > 0

    def test_value_dominates_scalar_reduction(self, split_r2, model, quick_config):
        # the slab contains the ray {t w}, so the inner max dominates the
        # 1-d root-find maximum (1/4) t_scalar^2 for the quartic model
        w = lowest_plus_direction(split_r2)
        t_scalar = 1.0 / np.sqrt(np.sum(w.values ** 4))
        scalar_max = 0.25 * t_scalar ** 2
        value = inner_max(split_r2, model, w, quick_config)[2]
        assert value >= scalar_max - 1e-10

    def test_warm_restart_is_fixed_point(self, split_r2, model, quick_config):
        w = lowest_plus_direction(split_r2)
        t, vm, *_ = inner_max(split_r2, model, w, quick_config)
        t2, vm2, _, _, iterations, _ = inner_max(split_r2, model, w, quick_config,
                                                 t, vm.copy())
        em = split_r2.minus_vectors
        assert iterations <= 2
        assert abs(t2 - t) <= 1e-10
        assert np.linalg.norm(em @ vm2 - em @ vm) <= 1e-10

    def test_multistart_ascent_agrees(self, split_r2, model, quick_config):
        # different warm starts land on the same maximizer
        w = lowest_plus_direction(split_r2)
        em = split_r2.minus_vectors
        t_ref, vm_ref, *_ = inner_max(split_r2, model, w, quick_config)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v0 = lg.project(split_r2, random_field(split_r2.box, rng), "minus")
            t0 = rng.uniform(0.5, 3.0)
            t, vm, *_ = inner_max(split_r2, model, w, quick_config, t0,
                                  split_r2.to_coords(v0)[split_r2.minus])
            assert abs(t - t_ref) <= 1e-8
            assert np.linalg.norm(em @ vm - em @ vm_ref) <= 1e-8

    def test_zero_nonlinearity_degenerate(self, split_r2, quick_config):
        # indefinite quadratic alone admits no interior maximizer
        w = lowest_plus_direction(split_r2)
        reason = inner_max(split_r2, lg.ZeroNonlinearity(), w, quick_config)[5]
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

    def test_translation_family_diagnostic_present(self, split_r3, model):
        # flagged only, never failed: box ground states need not be unique
        cfg = lg.SolverConfig(seed=2, multistart=5)
        result = lg.outer_minimize(split_r3, model, 0.0, cfg)
        diag = result.diagnostics
        assert "translation_family_gap" in diag
        assert diag["translation_family_flag"] == (diag["translation_family_gap"] > 1e-4)

    def test_all_degenerate_raises(self, split_r2, quick_config):
        with pytest.raises(DegenerateProblemError):
            lg.outer_minimize(split_r2, lg.ZeroNonlinearity(), 0.0, quick_config)


class TestPolishNewton:
    def test_reaches_polish_tolerance(self, split_r2, model, rough_candidate, quick_config):
        result = lg.polish_newton(split_r2, model, 0.0, rough_candidate.u, quick_config)
        assert result.residual_full <= quick_config.polish_tol * (
            1 + lg.lp_norm(result.u, 2))

    def test_exact_start_returns_unchanged(self, split_r2, model, rough_candidate, quick_config):
        polished = lg.polish_newton(split_r2, model, 0.0, rough_candidate.u, quick_config)
        again = lg.polish_newton(split_r2, model, 0.0, polished.u, quick_config)
        assert again.polish_iterations == 0
        np.testing.assert_array_equal(again.u.values, polished.u.values)

    def test_quadratic_contraction(self, split_r2, model, rough_candidate, quick_config):
        # r_{k+1} <= C r_k^2 along the tail of the iteration, ignoring the
        # floor where rounding dominates
        result = lg.polish_newton(split_r2, model, 0.0, rough_candidate.u, quick_config)
        history = [r for r in result.polish_residuals if r > 1e-13]
        assert len(history) >= 2
        ratios = [b / a ** 2 for a, b in zip(history, history[1:])]
        assert max(ratios[-3:]) <= 50.0

    def test_entry_threshold_enforced(self, split_r2, model, quick_config):
        far = random_field(split_r2.box, np.random.default_rng(7))
        with pytest.raises(InvalidInputError):
            lg.polish_newton(split_r2, model, 0.0, far, quick_config)


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
        assert ground_r2.c_rho >= 0.5 * ground_r2.diagnostics["sphere_floor"]

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
                                              n_samples=200, seed=11, tol=1e-6)
        assert ok, f"certificate violated by {worst}"

    def test_zero_model_raises_degenerate(self, split_r2):
        cfg = lg.SolverConfig(seed=1, multistart=2, validate_model=False)
        with pytest.raises(DegenerateProblemError, match="no nontrivial critical point"):
            lg.solve_ground_state(split_r2, lg.ZeroNonlinearity(), 0.0, cfg)

    def test_invalid_model_rejected_upfront(self, split_r2):
        with pytest.raises(lg.ModelHypothesisError):
            lg.solve_ground_state(split_r2, lg.ZeroNonlinearity(), 0.0,
                                  lg.SolverConfig(seed=1, multistart=2))

    def test_custom_model_without_primitive_rejected(self, split_r2):
        # passes validate_hypotheses, whose checks may integrate f; the
        # solver's many F calls may not
        model = CustomNonlinearity(
            f_fn=lambda u: u ** 3, df_fn=lambda u: 3.0 * u ** 2,
            growth_a=1.0, growth_p=4.0, gap_b=0.25, gap_q=4.0)
        with pytest.raises(InvalidInputError, match="F_fn"):
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

    @pytest.mark.parametrize("value", [0.0, 1.0, 2.0])
    def test_backtrack_shrink_range(self, value):
        with pytest.raises(InvalidInputError, match="backtrack_shrink"):
            lg.SolverConfig(backtrack_shrink=value)

    @pytest.mark.parametrize("value", [0.0, 1.0, -1e-4])
    def test_armijo_range(self, value):
        with pytest.raises(InvalidInputError, match="armijo"):
            lg.SolverConfig(armijo=value)

    def test_boundary_layers_positive(self):
        with pytest.raises(InvalidInputError, match="boundary_layers"):
            lg.SolverConfig(boundary_layers=0)

    @pytest.mark.parametrize("name", ["inner_tol", "outer_tol", "polish_tol"])
    def test_nan_tolerance_rejected(self, name):
        with pytest.raises(InvalidInputError, match=name):
            lg.SolverConfig(**{name: float("nan")})

    def test_certificate_samples_nonnegative(self):
        with pytest.raises(InvalidInputError, match="certificate_samples"):
            lg.SolverConfig(certificate_samples=-1)
        assert lg.SolverConfig(certificate_samples=0).certificate_samples == 0

    def test_boundary_layers_below_radius(self, split_r2, model):
        cfg = lg.SolverConfig(seed=1, multistart=2, boundary_layers=2)
        with pytest.raises(InvalidInputError, match="below the box radius"):
            lg.solve_ground_state(split_r2, model, 0.0, cfg)
