import dataclasses
import hashlib
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
from latticegap import cli, jsonio, solver
from latticegap.errors import (ConvergenceError, DegenerateProblemError,
                               InvalidInputError, NumericalError,
                               RhoOutOfRangeError)
from latticegap.nonlinearity import CustomNonlinearity
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
def terms_r2(split_r2, model):
    """J_0 of the quartic model on the R = 2 box."""
    return lg.SiteTerms(split_r2, model, 0.0)


@pytest.fixture(scope="module")
def rough_candidate(split_r2, terms_r2):
    """A converged candidate moved off to a residual near 1e-3, inside the
    polisher's entry threshold `polish_entry`."""
    base = lg.outer_minimize(terms_r2,
                             lg.SolverConfig(seed=1, multistart=3)).u.values
    direction = random_field(split_r2.box, np.random.default_rng(3)).values

    def moved(step):
        return lg.LatticeField(split_r2.box, base + step * direction)

    # the residual grows linearly in the step once it dominates J'(base)
    step = 1e-3 * 1e-4 / lg.nehari_residual(terms_r2, moved(1e-4)).full
    start = moved(step)
    assert 5e-4 <= lg.nehari_residual(terms_r2, start).full <= 2e-3
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
    (t, vm) and solved to `inner_tol`; returns (t, vm, value, residual,
    iterations, reason, status, bound)."""
    terms = lg.SiteTerms(split, model, 0.0)
    if vm is None:
        vm = np.zeros(split.negative_count)
    return _inner_core(_Slab(terms, split.coords_of(w.values)[split.plus]), t, vm)


class TestInnerMaximize:
    def test_converges_with_positive_t(self, split_r2, model, quick_config):
        w = lowest_plus_direction(split_r2)
        t, _, value, res, _, reason, _, _ = inner_max(split_r2, model, w)
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
        t2, vm2, _, _, iterations, _, _, _ = inner_max(split_r2, model, w,
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
                                  split_r2.coords_of(v0.values)[split_r2.minus])
            assert abs(t - t_ref) <= 1e-8
            assert np.linalg.norm(em @ vm - em @ vm_ref) <= 1e-8

    def test_rejected_at_the_first_iterate_above_the_ceiling(self, split_r2, model):
        # every iterate lies in the slab, so one above the ceiling shows the
        # maximum above it too; the solve stops there and counts its steps
        w = lowest_plus_direction(split_r2)
        top = inner_max(split_r2, model, w)[2]
        slab = _Slab(lg.SiteTerms(split_r2, model, 0.0),
                     split_r2.coords_of(w.values)[split_r2.plus])
        zero = np.zeros(split_r2.negative_count)
        start = _inner_core(slab, 1.0, zero)
        assert start[4] >= 2
        _, _, value, _, steps, reason, status, bound = _inner_core(
            slab, 1.0, zero, top - 1e-3)
        assert (status, reason, bound) == ("rejected", "value above the ceiling", np.inf)
        assert value > top - 1e-3 and 1 <= steps < start[4]
        assert _inner_core(slab, 1.0, zero, -np.inf)[4:7] == (
            0, "value above the ceiling", "rejected")

    @pytest.mark.parametrize("value_bound, res_cap", [(1e-3, 1e-1), (1e-5, 1e-2),
                                                      (1e-7, 1e-3)])
    def test_inexact_stop_bounds_the_value_by_the_half_decrement(
            self, split_r3, model, value_bound, res_cap):
        # the half Newton decrement of the last CG step estimates how far
        # the maximum lies above the returned value
        terms = lg.SiteTerms(split_r3, model, 0.0)
        zero = np.zeros(split_r3.negative_count)
        rng = np.random.default_rng(1)
        for _ in range(3):
            w = unit_plus_direction(split_r3, random_field(split_r3.box, rng))
            slab = _Slab(terms, split_r3.coords_of(w.values)[split_r3.plus])
            exact = _inner_core(slab, 1.0, zero)
            assert exact[6] == "converged" and exact[7] == 0.0
            _, _, value, res, steps, reason, status, bound = _inner_core(
                slab, 1.0, zero, np.inf, value_bound, res_cap)
            assert (status, reason) == ("converged", None)
            assert steps < exact[4] and res <= res_cap and 0.0 < bound <= value_bound
            assert 0.0 < exact[2] - value <= 2.0 * bound

    def test_zero_nonlinearity_degenerate(self, split_r2):
        # indefinite quadratic alone admits no interior maximizer
        w = lowest_plus_direction(split_r2)
        reason = inner_max(split_r2, lg.ZeroNonlinearity(), w)[5]
        assert reason is not None


# the box checks of the functions that map a field into eigencoordinates;
# the field's box has the split's 125 sites, so only the check refuses it
@pytest.mark.parametrize("call", [
    lambda terms, u: lg.project(terms.split, u, "plus"),
    lambda terms, u: lg.split_inner(terms.split, lg.zero_field(terms.split.box), u),
    lambda terms, u: lg.outer_minimize(terms, warm_start=u),
    lambda terms, u: lg.polish_newton(terms, u),
    lambda terms, u: lg.maximality_certificate(terms, u),
], ids=["project", "split_inner", "outer_minimize", "polish_newton",
        "maximality_certificate"])
def test_field_from_another_box_refused(split_r2, terms_r2, call):
    other = lg.delta_field(lg.BoxDomain(1, 62))
    assert other.box.site_count == split_r2.size
    with pytest.raises(InvalidInputError, match="box does not match"):
        call(terms_r2, other)


class TestOuterMinimize:
    def test_monotone_trace(self, split_r3, model, quick_config):
        result = lg.outer_minimize(lg.SiteTerms(split_r3, model, 0.0), quick_config)
        levels = [rec["level"] for rec in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))
        assert result.residual.full <= quick_config.outer_tol * (
            1 + lg.lp_norm(result.u, 2))

    def test_level_agreement_or_flag(self, split_r3, model):
        cfg = lg.SolverConfig(seed=2, multistart=5)
        result = lg.outer_minimize(lg.SiteTerms(split_r3, model, 0.0), cfg)
        levels = [l for l in result.diagnostics["start_levels"] if l is not None]
        spread = (max(levels) - min(levels)) / max(1.0, abs(min(levels)))
        if not result.diagnostics["distinct_levels_flag"]:
            assert spread <= 1e-6
        else:
            assert spread > 1e-6

    def test_boundary_filter_selects_interior(self, split_r3, model):
        cfg = lg.SolverConfig(seed=2, multistart=5, max_boundary_mass=0.25)
        result = lg.outer_minimize(lg.SiteTerms(split_r3, model, 0.0), cfg)
        assert lg.boundary_mass_fraction(split_r3.box, result.u.values) <= 0.25

    def test_all_degenerate_raises(self, split_r2, quick_config):
        with pytest.raises(DegenerateProblemError):
            lg.outer_minimize(lg.SiteTerms(split_r2, lg.ZeroNonlinearity(), 0.0),
                              quick_config)

    def test_all_degenerate_raises_before_the_interior_filter(self, split_r2):
        # with no usable start there is no candidate for the filter to judge
        cfg = lg.SolverConfig(seed=1, multistart=3, max_boundary_mass=0.25)
        with pytest.raises(DegenerateProblemError, match="degenerate"):
            lg.outer_minimize(lg.SiteTerms(split_r2, lg.ZeroNonlinearity(), 0.0), cfg)

    def test_every_candidate_boundary_localized_raises(self, terms_r2):
        # every state has boundary mass above 1e-300, so the filter keeps none
        cfg = lg.SolverConfig(seed=1, multistart=3, max_boundary_mass=1e-300)
        with pytest.raises(ConvergenceError,
                           match="every candidate is boundary-localized"):
            lg.outer_minimize(terms_r2, cfg)

    def test_no_start_converged_lists_the_reasons(self, monkeypatch, terms_r2,
                                                  quick_config):
        def failed(terms, starts):
            return [solver._StartResult(index=i, status="failed",
                                        reason=f"reason {i}")
                    for i in range(len(starts))]

        monkeypatch.setattr(solver, "_run_starts", failed)
        reasons = "; ".join(f"reason {i}" for i in range(quick_config.multistart))
        with pytest.raises(ConvergenceError,
                           match=f"^no start converged: {reasons}$"):
            lg.outer_minimize(terms_r2, quick_config)

    def test_capped_inner_solve_fails_the_start_and_counts_its_step(
            self, monkeypatch, split_r2, terms_r2):
        monkeypatch.setattr(lg.SolverConfig, "max_inner", 1)
        lam_pos = split_r2.eigenvalues[split_r2.plus]
        wp = np.zeros(lam_pos.size)
        wp[0] = 1.0 / np.sqrt(lam_pos[0])
        out = solver._outer_single(terms_r2, wp, 0)
        assert out.status == "failed"
        assert out.reason == "inner maximization exceeded 1 iterations"
        assert out.inner_iterations == 1

    def test_capped_inner_solves_fail_the_multistart(self, monkeypatch, terms_r2,
                                                     quick_config):
        monkeypatch.setattr(lg.SolverConfig, "max_inner", 1)
        reasons = "; ".join(["inner maximization exceeded 1 iterations"]
                            * quick_config.multistart)
        with pytest.raises(ConvergenceError,
                           match=f"^no start converged: {reasons}$"):
            lg.outer_minimize(terms_r2, quick_config)

    # the candidate has the least (round(level / 1e-10), coords_norm): start
    # 0 has the lower level and start 1 the smaller norm, so start 1 wins in
    # one bucket and start 0 across a bucket boundary, however close
    @pytest.mark.parametrize("levels, winner", [
        ((1.0, 1.0 + 3e-11), 1),
        ((18320084103.5e-10 - 1e-15, 18320084103.5e-10 + 1e-15), 0),
    ], ids=["one-bucket", "adjacent-buckets"])
    def test_tie_break(self, monkeypatch, split_r2, terms_r2, levels, winner):
        def run_starts(terms, starts):
            return [solver._StartResult(
                index=i, status="converged", value=level,
                values=np.full(split_r2.size, i + 1.0), coords_norm=2.0 - i,
                residual=lg.NehariResidual(along_u=0.0, along_minus=0.0, full=0.0))
                for i, level in enumerate(levels)]

        assert levels[0] < levels[1] < levels[0] + 1e-10
        same_bucket = round(levels[0] / 1e-10) == round(levels[1] / 1e-10)
        assert same_bucket == (winner == 1)
        monkeypatch.setattr(solver, "_run_starts", run_starts)
        result = lg.outer_minimize(terms_r2, lg.SolverConfig(multistart=2))
        assert result.start_index == winner
        assert result.c_rho == levels[winner]
        assert np.all(result.u.values == winner + 1.0)

    def test_warm_start_without_plus_part_refused(self, split_r2, terms_r2):
        u = lg.project(split_r2, random_field(split_r2.box,
                                              np.random.default_rng(6)), "minus")
        with pytest.raises(InvalidInputError, match="no X\\^\\+ component"):
            lg.outer_minimize(terms_r2, warm_start=u)


class TestPolishNewton:
    def test_reaches_polish_tolerance(self, terms_r2, rough_candidate, quick_config):
        result = lg.polish_newton(terms_r2, rough_candidate)
        assert result.residual.full <= quick_config.polish_tol * (
            1 + lg.lp_norm(result.u, 2))

    def test_exact_start_returns_unchanged(self, terms_r2, rough_candidate):
        polished = lg.polish_newton(terms_r2, rough_candidate)
        again = lg.polish_newton(terms_r2, polished.u)
        assert again.polish_iterations == 0
        np.testing.assert_array_equal(again.u.values, polished.u.values)

    def test_quadratic_contraction(self, terms_r2, rough_candidate):
        # r_{k+1} <= C r_k^2 along the tail of the iteration, ignoring the
        # floor where rounding dominates
        result = lg.polish_newton(terms_r2, rough_candidate)
        history = [r for r in result.polish_residuals if r > 1e-13]
        assert len(history) >= 2
        ratios = [b / a ** 2 for a, b in zip(history, history[1:])]
        assert max(ratios[-3:]) <= 50.0

    def test_entry_threshold_enforced(self, split_r2, terms_r2):
        far = random_field(split_r2.box, np.random.default_rng(7))
        with pytest.raises(ConvergenceError, match="too large for local Newton"):
            lg.polish_newton(terms_r2, far)

    def test_singular_jacobian_refused(self, monkeypatch, terms_r2, rough_candidate):
        def raising(jac):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver.spla, "splu", raising)
        with pytest.raises(lg.SingularJacobianError, match="polish Jacobian singular"):
            lg.polish_newton(terms_r2, rough_candidate)

    def test_ten_steps_without_descent_diverge(self, monkeypatch, terms_r2,
                                               rough_candidate):
        # a zero Newton step leaves the residual where it is at every
        # damping, so each step counts towards the divergence refusal
        solves = []

        class ZeroStep:
            def __init__(self, jac):
                pass

            def solve(self, rhs):
                solves.append(rhs)
                return np.zeros_like(rhs)

        monkeypatch.setattr(solver.spla, "splu", ZeroStep)
        with pytest.raises(ConvergenceError, match="Newton polish diverged"):
            lg.polish_newton(terms_r2, rough_candidate)
        assert len(solves) == 10

    def test_stops_only_when_every_residual_meets_its_tolerance(self, split_r3):
        # after one step this candidate's full residual (5.8e-8) is inside
        # 1e-8 (1 + ||u||_2), but its residual along X^- (3.6e-8) is above
        # 1e-8; one more step brings all three to the rounding floor
        terms = lg.SiteTerms(split_r3, lg.PowerNonlinearity(2.2), 0.0)
        candidate = lg.outer_minimize(terms, lg.SolverConfig(seed=11, multistart=3))
        result = lg.polish_newton(terms, candidate.u)
        assert result.polish_iterations == 2
        residual = result.residual
        assert max(abs(residual.along_u), residual.along_minus, residual.full) < 1e-13
        assert residual == lg.nehari_residual(terms, result.u)

    def test_residual_along_minus_out_of_reach_fails(self, monkeypatch, terms_r2,
                                                     rough_candidate):
        # a residual along X^- that no Newton step brings within tolerance
        # ends the polish as a ConvergenceError, not as a returned state
        nehari_residual = solver.nehari_residual
        monkeypatch.setattr(solver, "nehari_residual", lambda terms, u: dataclasses.replace(
            nehari_residual(terms, u), along_minus=1.0))
        with pytest.raises(ConvergenceError, match="Newton polish (exceeded|diverged)"):
            lg.polish_newton(terms_r2, rough_candidate)

    @pytest.mark.parametrize("member, name, tolerance", [
        ("along_minus", "along X\\^-", "1.000e-08"),
        ("along_u", "along u", r"\d\.\d{3}e-0[78]")])
    def test_stuck_polish_names_the_residual_that_failed(
            self, monkeypatch, split_r2, terms_r2, member, name, tolerance):
        # the full residual of this candidate reaches the rounding floor, so
        # only the patched residual keeps the polish going
        candidate = lg.outer_minimize(terms_r2, lg.SolverConfig(seed=1, multistart=3))
        nehari_residual = solver.nehari_residual
        monkeypatch.setattr(solver, "nehari_residual", lambda terms, u: dataclasses.replace(
            nehari_residual(terms, u), **{member: 1.0}))
        with pytest.raises(ConvergenceError,
                           match=f"residual {name} 1.000e\\+00 above its tolerance {tolerance}"):
            lg.polish_newton(terms_r2, candidate.u)

    def test_stuck_full_residual_is_named(self, monkeypatch, terms_r2, rough_candidate):
        monkeypatch.setattr(lg.SolverConfig, "max_polish", 0)
        with pytest.raises(ConvergenceError, match=r"Newton polish exceeded 0 iterations "
                           r"\(full residual \d\.\d{3}e-0\d above its tolerance \d\.\d{3}e-08\)"):
            lg.polish_newton(terms_r2, rough_candidate)


class TestSolveGroundState:
    def test_exit_residuals(self, terms_r2, ground_r2):
        l2 = lg.lp_norm(ground_r2.u, 2)
        assert ground_r2.residual.full <= 1e-8 * (1 + l2)
        assert abs(ground_r2.residual.along_u) <= 1e-8 * (1 + l2 ** 2)
        assert ground_r2.residual.along_minus <= 1e-8
        res = lg.nehari_residual(terms_r2, ground_r2.u)
        assert res.full == ground_r2.residual.full

    def test_positive_level_above_sphere_floor(self, ground_r2):
        assert ground_r2.c_rho > 0
        assert ground_r2.c_rho >= ground_r2.diagnostics["sphere_floor"] > 0

    def test_state_below_sphere_floor_refused(self, monkeypatch, split_r2,
                                              model, terms_r2, quick_config):
        # the polish returns 0.05 u: its residuals pass, its level does not
        polish = solver.polish_newton

        def shrunk(*args, **kwargs):
            result = polish(*args, **kwargs)
            u = lg.LatticeField(split_r2.box, 0.05 * result.u.values)
            level = lg.evaluate_energy(terms_r2, u).value
            return dataclasses.replace(result, u=u, c_rho=level)

        monkeypatch.setattr(solver, "polish_newton", shrunk)
        with pytest.raises(lg.PostConditionError, match="below the sphere floor"):
            lg.solve_ground_state(split_r2, model, 0.0, quick_config)

    @pytest.mark.parametrize("broken", [
        "u has no X^+ component", "not positive", "boundary mass fraction"])
    def test_exit_check_refuses_a_state_that_breaks_it(
            self, monkeypatch, split_r2, model, ground_r2, broken):
        # the patched polish hands over a state that breaks one exit check
        # (with no X^+ part or no positive level it breaks the floor too);
        # the residuals are the polish's own verdict, so none is re-checked
        polish = solver.polish_newton

        def breaking(terms, u0):
            result = polish(terms, u0)
            if broken == "not positive":
                return dataclasses.replace(result, c_rho=0.0)
            if broken == "boundary mass fraction":  # the corner ground state
                return polish(terms, ground_r2.u)
            split = terms.split
            coords = split.coords_of(result.u.values)
            u = lg.LatticeField(split.box, split.values_of(coords[split.minus], "minus"))
            return dataclasses.replace(
                result, u=u, c_rho=lg.evaluate_energy(terms, u).value)

        monkeypatch.setattr(solver, "polish_newton", breaking)
        # the filter admits the centred candidate (boundary mass 0.27) and
        # refuses the corner state (0.87)
        config = lg.SolverConfig(seed=1, multistart=3, max_boundary_mass=0.5)
        with pytest.raises(lg.PostConditionError, match=re.escape(broken)):
            lg.solve_ground_state(split_r2, model, 0.0, config)

    def test_polish_cap_reaches_the_caller(self, monkeypatch, split_r2, model,
                                           quick_config):
        # the polish alone decides the full residual: a polish that stops
        # short of its tolerance is a ConvergenceError, not an exit check
        monkeypatch.setattr(lg.SolverConfig, "max_polish", 0)
        with pytest.raises(lg.ConvergenceError, match="Newton polish exceeded 0"):
            lg.solve_ground_state(split_r2, model, 0.0, quick_config)

    @pytest.mark.parametrize("radius, p, level, start", [
        (4, 2.5, 3.595056178654472, 1), (4, 2.9, 2.580428551506664, 1),
        (5, 2.5, 3.5258645390546164, 4)])
    def test_powers_below_three_pass_every_exit_check(self, request, ground_config,
                                                      radius, p, level, start):
        # the validator admits every p > 2, and the interior solves below
        # p = 3 pass the same exit checks as the quartic ones
        split = request.getfixturevalue(f"split_r{radius}")
        result = lg.solve_ground_state(split, lg.PowerNonlinearity(p), 0.0, ground_config)
        assert result.start_index == start
        assert abs(result.c_rho - level) <= 1e-10 * level

    def test_power_2_2_is_boundary_localized_at_radius_4(self, split_r4, ground_config):
        # p = 2.2 at R = 4 leaves no interior candidate; the box-global
        # solve of the same starts passes every exit check
        model = lg.PowerNonlinearity(2.2)
        with pytest.raises(ConvergenceError, match="every candidate is boundary-localized"):
            lg.solve_ground_state(split_r4, model, 0.0, ground_config)
        result = lg.solve_ground_state(split_r4, model, 0.0, dataclasses.replace(
            ground_config, max_boundary_mass=None))
        assert abs(result.c_rho - 1.234407331455948) <= 1e-10 * 1.234407331455948

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

    def test_maximality_certificate_holds(self, terms_r2, ground_r2):
        ok, bound = lg.maximality_certificate(terms_r2, ground_r2.u)
        assert ok, f"certificate bound {bound}"
        assert ground_r2.diagnostics["certificate_bound"] == bound

    def test_certificate_needs_the_monotone_slope(self, split_r2, ground_r2):
        # the bound is a proof only under a non-decreasing f(u)/|u|; here
        # the slope u |u| exp(-u^2) falls beyond |u| = 1
        model = CustomNonlinearity(
            f_fn=lambda u: u ** 3 * np.exp(-u * u),
            F_fn=lambda u: 0.5 - 0.5 * (1.0 + u * u) * np.exp(-u * u),
            df_fn=lambda u: (3.0 - 2.0 * u * u) * u * u * np.exp(-u * u))
        assert "monotone_slope" in lg.validate_hypotheses(model).failed_names()
        with pytest.raises(lg.ModelHypothesisError, match="monotone slope"):
            lg.maximality_certificate(lg.SiteTerms(split_r2, model, 0.0), ground_r2.u)
        # a model failing only another check is certified as usual: this
        # quartic declares no near-zero envelope
        power4 = lg.PowerNonlinearity(4.0)
        power = CustomNonlinearity(f_fn=power4.f, F_fn=power4.F, df_fn=power4.df,
                                   growth_a=1.0, growth_p=4.0, gap_b=0.5, gap_q=4.0)
        assert lg.validate_hypotheses(power).failed_names() == ["vanishing_at_zero"]
        assert np.isfinite(lg.maximality_certificate(
            lg.SiteTerms(split_r2, power, 0.0), ground_r2.u)[1])

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

    @pytest.mark.parametrize("rho", [float("nan"), -0.1, float("inf")])
    def test_bad_rho_rejected(self, monkeypatch, split_r2, model, rho):
        # the solve builds its one SiteTerms first, which refuses the
        # coupling; the hooks fail if any work starts before that
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the coupling was checked")

        constants = lg.compute_constants(split_r2)
        monkeypatch.setattr(lg.InequalityConstants, "check_fits", no_work)
        for name in ("validate_hypotheses", "_run_starts"):
            monkeypatch.setattr(solver, name, no_work)
        with pytest.raises(InvalidInputError, match="rho must be >= 0"):
            lg.solve_ground_state(split_r2, model, rho, constants=constants)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_one_site_terms_per_solve(self, monkeypatch, split_r2, model,
                                      quick_config, cores):
        # J_rho is built once and handed to the multistart, the polish and
        # every exit check, whether the starts run in-process or in workers
        built = []
        init = lg.SiteTerms.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        use_cores(monkeypatch, cores)
        monkeypatch.setattr(lg.SiteTerms, "__init__", counted)
        lg.solve_ground_state(split_r2, model, 0.0, quick_config)
        assert len(built) == 1

    def test_positive_rho_without_constants_refused(self, monkeypatch,
                                                     split_r2, model):
        # the coupling cap and the sphere floor need rho_max; the solver
        # does not compute the box constants behind the caller's back
        def run_starts(*args):
            raise AssertionError("the multistart ran")

        monkeypatch.setattr(solver, "_run_starts", run_starts)
        with pytest.raises(InvalidInputError, match="compute_constants"):
            lg.solve_ground_state(split_r2, model, 0.1)

    def test_rho_above_cap_rejected(self, split_r3, model):
        constants = lg.compute_constants(split_r3)
        with pytest.raises(RhoOutOfRangeError):
            lg.solve_ground_state(split_r3, model, constants.rho_max,
                                  lg.SolverConfig(seed=1), constants=constants)

    # only the box can disagree: the constants carry their Hardy weight
    # (see test_graph_constants_bring_the_graph_weight)
    @pytest.mark.parametrize("other", ["radius"])
    def test_constants_of_another_box_or_metric_refused(self, split_r2, model,
                                                        constants_r3, other):
        # constants record N and R; with another box's rho_max the coupling
        # cap would be that box's
        constants = constants_r3
        rho = 0.5 * constants.rho_max
        u = lg.project(split_r2, random_field(split_r2.box,
                                              np.random.default_rng(5)), "plus")
        calls = (
            lambda: lg.solve_ground_state(split_r2, model, rho,
                                          constants=constants),
            lambda: lg.rho_norm_plus(split_r2, u, rho, constants=constants),
            lambda: lg.sweep_rho(lg.SweepPlan((rho, 0.0)), split_r2, model,
                                 constants=constants))
        for call in calls:
            with pytest.raises(InvalidInputError, match="do not fit"):
                call()

    def test_graph_constants_bring_the_graph_weight(self, split_r2, model,
                                                    quick_config):
        # kappa is the graph weight's constant, so every solve that takes
        # these constants uses the graph weight
        graph = lg.compute_constants(split_r2, lg.GRAPH_WEIGHT)
        rho = 0.5 * graph.rho_max

        def level(weight, coupling, u):
            terms = lg.SiteTerms(split_r2, model, coupling, weight)
            return lg.evaluate_energy(terms, u).value

        result = lg.solve_ground_state(split_r2, model, rho, quick_config,
                                       constants=graph)
        assert result.c_rho == level(lg.GRAPH_WEIGHT, rho, result.u)
        assert result.c_rho != level(lg.EUCLIDEAN_WEIGHT, rho, result.u)
        records = lg.sweep_rho(lg.SweepPlan((rho, 0.0)), split_r2, model,
                               quick_config, constants=graph)
        assert [r.c_rho for r in records] == [
            level(lg.GRAPH_WEIGHT, r.rho, r.field) for r in records]
        u = lg.project(split_r2, random_field(split_r2.box,
                                              np.random.default_rng(5)), "plus")
        assert lg.rho_norm_plus(split_r2, u, rho, constants=graph) == (
            lg.split_inner(split_r2, u, u) - lg.weighted_mass(u, rho, lg.GRAPH_WEIGHT))
        # at rho = 0 no Hardy term is left for the weight to change
        fields = [lg.solve_ground_state(split_r2, model, 0.0, quick_config,
                                        constants=constants).u.values.tobytes()
                  for constants in (graph, None)]
        assert fields[0] == fields[1]

    def test_warm_start_reproduces_solution(self, split_r2, model, ground_r2):
        cfg = lg.SolverConfig(seed=9, multistart=1)
        warm = lg.solve_ground_state(split_r2, model, 0.0, cfg,
                                     warm_start=ground_r2.u)
        assert abs(warm.c_rho - ground_r2.c_rho) <= 1e-9
        assert np.linalg.norm(warm.u.values - ground_r2.u.values) <= 1e-6

    def test_polishes_the_candidate_once(self, monkeypatch, split_r2, model,
                                         terms_r2, quick_config):
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
        candidate = lg.outer_minimize(terms_r2, quick_config)
        expected = polish(terms_r2, candidate.u)
        assert result.u.values.tobytes() == expected.u.values.tobytes()
        assert result.c_rho == expected.c_rho
        assert result.polish_iterations == expected.polish_iterations
        assert result.polish_residuals == expected.polish_residuals

    def test_polished_state_is_derived_once(self, monkeypatch, split_r4, model):
        # the level, the residuals, the X^+ check and the certificate read
        # the polish's record: J' is evaluated once at the returned state's
        # bytes, at the polish's last iterate, and after the multistart only
        # the record maps to eigencoordinates, u and J'(u) once each
        constants = lg.compute_constants(split_r4)
        gradient, coords_of = lg.SiteTerms.gradient, lg.SpectralSplit.coords_of
        outer = solver.outer_minimize
        evaluated, maps, outer_done = [], [], []

        def counted_gradient(terms, u):
            evaluated.append(u.tobytes())
            return gradient(terms, u)

        def counted_coords_of(split, values, part="all"):
            if outer_done:
                maps.append(part)
            return coords_of(split, values, part)

        def marked_outer(*args, **kwargs):
            result = outer(*args, **kwargs)
            outer_done.append(True)
            return result

        monkeypatch.setattr(lg.SiteTerms, "gradient", counted_gradient)
        monkeypatch.setattr(lg.SpectralSplit, "coords_of", counted_coords_of)
        monkeypatch.setattr(solver, "outer_minimize", marked_outer)
        config = lg.SolverConfig(seed=7, multistart=5, max_boundary_mass=0.25)
        result = lg.solve_ground_state(split_r4, model, 0.4 * constants.rho_max,
                                       config, constants=constants)
        assert evaluated.count(result.u.values.tobytes()) == 1
        assert maps == ["all", "all"]

    def test_run_log_schema(self, ground_r2):
        assert ground_r2.trace, "no outer trace recorded"
        for record in ground_r2.trace:
            assert set(record) == {"iter", "level", "residual_full",
                                   "residual_minus", "t"}

    def test_run_log_records_keep_their_bytes(self, ground_r2):
        # the run_log line format before jsonio.record, kept as the oracle
        def old_record_line(record):
            parts = [f'"{k}": ' + (f"{v:.17g}" if isinstance(v, float) else str(v))
                     for k, v in record.items()]
            return "{" + ", ".join(parts) + "}"

        assert [jsonio.record(r) for r in ground_r2.trace] == \
            [old_record_line(r) for r in ground_r2.trace]


class TestSolverConfig:
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5])
    def test_max_boundary_mass_range(self, value):
        with pytest.raises(InvalidInputError, match="max_boundary_mass"):
            lg.SolverConfig(max_boundary_mass=value)

    # a bool is not a number of starts or a seed, as in the CLI's loader
    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("seed", "7"),
        ("multistart", 2.5), ("multistart", False), ("multistart", np.float64(3.0)),
        ("max_boundary_mass", "0.25"), ("max_boundary_mass", True)])
    def test_mistyped_field_refused(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            lg.SolverConfig(**{name: value})

    def test_numpy_numbers_accepted(self):
        cfg = lg.SolverConfig(seed=np.int64(3), multistart=np.int32(2),
                              max_boundary_mass=np.float64(0.5))
        assert (cfg.seed, cfg.multistart, cfg.max_boundary_mass) == (3, 2, 0.5)

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

    @pytest.mark.parametrize("name", ["theta", "eta"])
    def test_inexact_stop_constants_in_range(self, name):
        assert 0.0 < getattr(lg.SolverConfig, name) < 1.0
        with pytest.raises(TypeError, match=name):
            lg.SolverConfig(**{name: 0.0})

    @pytest.mark.parametrize("name,zero_ok", [("certificate_tol", True),
                                              ("polish_entry", False)])
    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_meaningless_step_tolerance_rejected(self, name, zero_ok, value):
        constant = getattr(lg.SolverConfig, name)
        assert constant >= 0.0 if zero_ok else constant > 0.0
        with pytest.raises(TypeError, match=name):
            lg.SolverConfig(**{name: value})

    @pytest.mark.parametrize("values", [np.zeros(7), np.full(27, np.nan),
                                        np.ones(7)], ids=["zero", "nan", "short"])
    def test_boundary_mass_needs_a_field_on_the_box(self, values):
        # one finite value per site of the R = 1 box, whose 27 sites are
        # all but the origin in its one boundary layer
        box = lg.BoxDomain(3, 1)
        with pytest.raises(InvalidInputError, match="values"):
            lg.boundary_mass_fraction(box, values)
        assert lg.boundary_mass_fraction(box, np.ones(27)) == 26 / 27

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
            lg.outer_minimize(lg.SiteTerms(split_r3, model, 0.0), _interior_config(7))
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
                lg.outer_minimize(lg.SiteTerms(split_r3, model, rho), cfg),
                lg.solve_ground_state(split_r3, model, rho, cfg,
                                      constants=constants_r3))
            assert multiprocessing.active_children() == []
        for pooled, in_process in zip(results[2], results[1]):
            _fields_equal(pooled, in_process)
        # the per-start work counts, in start order, repeat on a rerun
        use_cores(monkeypatch, 2)
        rerun = lg.outer_minimize(lg.SiteTerms(split_r3, model, rho), cfg)
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
            lg.outer_minimize(lg.SiteTerms(split_r3, model, 0.0), _interior_config(7))
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
            lg.outer_minimize(lg.SiteTerms(split, lg.PowerNonlinearity(4.0), 0.0),
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


@pytest.fixture(scope="module")
def slab_states(request, model):
    """(split, rho, ground state) by (R, fraction of rho_max) for R = 2..6:
    box-global at R = 2, whose box has no interior state, interior above."""
    states = {}
    for radius in range(2, 7):
        split = request.getfixturevalue(f"split_r{radius}")
        constants = lg.compute_constants(split)
        config = (lg.SolverConfig(seed=1, multistart=6) if radius == 2
                  else _interior_config(7))
        for frac in (0.0, 0.4):
            rho = frac * constants.rho_max
            states[radius, frac] = (split, rho, lg.solve_ground_state(
                split, model, rho, config, constants=constants).u)
    return states


class TestCertificateOracle:
    """The closed-form bound dominates the worst excess that the per-sample
    loop of `oracle_certificate` finds on 200 slab points t u + v, and the
    exact excess at t = 1 / scale, v = 0 of a scaled ground state."""

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1.1])
    @pytest.mark.parametrize("frac", [0.0, 0.4])
    def test_maximality_certificate(self, slab_states, model, frac, scale):
        for radius in range(2, 7):
            split, rho, ground = slab_states[radius, frac]
            u = lg.LatticeField(split.box, scale * ground.values)
            terms = lg.SiteTerms(split, model, rho)
            ok, bound = lg.maximality_certificate(terms, u)
            _, worst = oracle_certificate.maximality_certificate(
                split, model, u, rho, 200, 3578, 1e-6, lg.EUCLIDEAN_WEIGHT)
            assert bound >= worst, f"R = {radius}"
            if scale == 1.0:
                assert ok and bound <= 1e-9, f"R = {radius}: bound {bound}"
                continue
            # t = 1 / scale maps u back onto the ground state: at half of it
            # t = 2 wins, and 1.1 u, which the sampled points miss, is off
            # the Nehari set as well
            excess = (lg.evaluate_energy(terms, ground).value
                      - lg.evaluate_energy(terms, u).value)
            assert not ok and bound >= excess > 0.0, f"R = {radius}"


class TestSphereFloor:
    """The closed-form floor: near its optimum for the power model, and
    below J on the X^+ sphere where that optimum is reached."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("alpha", [1.0, 0.6, 0.1])
    def test_power_model_near_optimum(self, split_r3, p, alpha):
        # lambda_1^+ = |c| = 1 on the checkerboard; the bound
        # alpha d^2 / 2 - d^p / p peaks at d^(p-2) = alpha
        floor = solver._sphere_floor(
            lg.SiteTerms(split_r3, lg.PowerNonlinearity(p), 0.0), alpha)
        optimum = alpha * (p - 2.0) / (2.0 * p) * alpha ** (2.0 / (p - 2.0))
        assert 0.99 * optimum <= floor <= optimum

    @pytest.mark.parametrize("radius", [3, 4])
    @pytest.mark.parametrize("frac", [0.0, 0.4, 0.9])
    def test_below_energy_on_the_sphere(self, problems_r34, model, radius, frac):
        split, constants = problems_r34[radius]
        alpha = 1.0 - frac
        terms = lg.SiteTerms(split, model, frac * constants.rho_max)
        floor = solver._sphere_floor(terms, alpha)
        # p = 4: the optimal d^2 is alpha lambda_1^+, at the X^+ norm d sqrt(lambda_1^+)
        lam = split.eigenvalues[split.plus][0]
        norm = np.sqrt(alpha) * lam
        rng = np.random.default_rng(radius)
        coords = split.coords_of(rng.standard_normal((split.size, 400)), "plus")
        coords *= norm / np.sqrt(split.eigenvalues[split.plus] @ coords ** 2)
        levels = [0.5 * norm ** 2 - terms.energy(v)
                  for v in split.values_of(coords, "plus").T]
        assert floor > 0.0
        assert min(levels) >= floor


def _split_from(split, eigenpairs):
    return lg.spectral_split(split.box, split.operator, split.gap, eigenpairs)


class TestBasisIndependence:
    """The random starts are drawn in site space, and the certificate reads
    X^- through sum c_j^2 / |lambda_j|, a sum over each eigenspace, so a
    split built from other eigenpairs of the same operator gives the same
    solves and certificates.  Start 0,
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
        got, want = (lg.outer_minimize(lg.SiteTerms(split, model, 0.0), config)
                     for split in (split_r3, _split_from(split_r3, eigenpairs)))
        assert np.allclose(got.diagnostics["start_levels"][1:],
                           want.diagnostics["start_levels"][1:],
                           rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("frac", [0.0, 0.4])
    def test_rotated_eigenspaces_give_the_same_certificate(
            self, split_r3, model, constants_r3, ground_r3, frac, scale):
        # fails if the bound depends on the basis inside an X^- eigenspace
        rotated = _split_from(split_r3, rotated_in_eigenspaces(
            sector_eigenpairs(split_r3.box, split_r3.operator, "evd"),
            np.random.default_rng(5)))
        rho = frac * constants_r3.rho_max
        u = lg.LatticeField(split_r3.box, scale * ground_r3[frac].u.values)
        (ok, bound), (want_ok, want) = (
            lg.maximality_certificate(lg.SiteTerms(split, model, rho), u)
            for split in (split_r3, rotated))
        assert ok == want_ok == (scale == 1.0)
        assert abs(bound - want) <= 1e-12 * abs(want)


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


# The R = 4 interior solve (seed 0, 0.4 rho_max, filter 0.25) of the code
# that solved every line-search trial to `inner_tol`, on one BLAS thread:
# its level's bits, the sha256 of its field's bytes and its start
EXACT_R4 = ("0x1.a175adcfb0e78p+0",
            "c8aa1d1e82b1e62be9b7e62b80f96728780c2661b55468dd3844831589ce38fe", 1)


def _solve_r4(problems_r34, model):
    split, constants = problems_r34[4]
    config = lg.SolverConfig(seed=0, multistart=5, max_boundary_mass=0.25)
    with cli._one_blas_thread():
        return lg.solve_ground_state(split, model, 0.4 * constants.rho_max, config,
                                     constants=constants)


def _solve_every_trial_to_inner_tol(monkeypatch):
    monkeypatch.setattr(lg.SolverConfig, "theta", 0.0)
    monkeypatch.setattr(lg.SolverConfig, "eta", 0.0)


def _fingerprint(result):
    return (result.c_rho.hex(), hashlib.sha256(result.u.values.tobytes()).hexdigest(),
            result.start_index)


def test_early_rejection_keeps_the_exact_path(monkeypatch, problems_r34, model):
    _solve_every_trial_to_inner_tol(monkeypatch)
    rejecting = _solve_r4(problems_r34, model)
    assert _fingerprint(rejecting) == EXACT_R4
    # solving each rejected trial to the end changes nothing but the count
    core = solver._inner_core
    monkeypatch.setattr(solver, "_inner_core", lambda slab, t, vm, ceiling, *stop: core(
        slab, t, vm, np.inf, *stop))
    exact = _solve_r4(problems_r34, model)
    assert _fingerprint(exact) == EXACT_R4
    assert exact.diagnostics["start_outer_iterations"] == rejecting.diagnostics[
        "start_outer_iterations"]
    assert sum(exact.diagnostics["start_inner_iterations"]) > sum(
        rejecting.diagnostics["start_inner_iterations"])


@pytest.mark.parametrize("radius, frac, max_boundary_mass, seed", list(SELECTED))
def test_inexact_inner_solves_reach_the_tight_states(monkeypatch, problems_r34, model,
                                                     radius, frac, max_boundary_mass,
                                                     seed):
    split, constants = problems_r34[radius]
    config = lg.SolverConfig(seed=seed, multistart=5, max_boundary_mass=max_boundary_mass)

    def solve():
        return lg.solve_ground_state(split, model, frac * constants.rho_max, config,
                                     constants=constants)

    inexact = solve()
    _solve_every_trial_to_inner_tol(monkeypatch)
    tight = solve()
    assert inexact.diagnostics["start_statuses"] == tight.diagnostics["start_statuses"]
    assert abs(inexact.c_rho - tight.c_rho) <= 1e-13 * tight.c_rho
    # the start is the same, or the two tie in one bucket of the selection
    levels = inexact.diagnostics["start_levels"]
    assert (inexact.start_index == tight.start_index
            or round(levels[inexact.start_index] / 1e-10)
            == round(levels[tight.start_index] / 1e-10))


def test_inexact_inner_solves_cut_the_inner_iterations(monkeypatch, problems_r34, model):
    inexact = sum(_solve_r4(problems_r34, model).diagnostics["start_inner_iterations"])
    _solve_every_trial_to_inner_tol(monkeypatch)
    tight = sum(_solve_r4(problems_r34, model).diagnostics["start_inner_iterations"])
    assert inexact <= 0.7 * tight


def test_every_inner_solve_counts_its_steps(monkeypatch, problems_r34, model):
    # rejected trials and base refinements included
    split, constants = problems_r34[3]
    returned = []
    core = solver._inner_core

    def counted(*args):
        returned.append(core(*args))
        return returned[-1]

    use_cores(monkeypatch, 1)
    monkeypatch.setattr(solver, "_inner_core", counted)
    result = lg.outer_minimize(
        lg.SiteTerms(split, model, 0.4 * constants.rho_max, constants.weight),
        lg.SolverConfig(seed=0, multistart=5))
    statuses = {out[6] for out in returned}
    assert {"converged", "rejected"} <= statuses
    assert sum(result.diagnostics["start_inner_iterations"]) == sum(
        out[4] for out in returned)


def test_each_armijo_test_compares_values_exact_to_its_bound(monkeypatch, problems_r34,
                                                             model):
    # a solve that stops early is within its residual cap and value bound,
    # and the base value a trial is tested against is as exact as the trial
    split, constants = problems_r34[3]
    core = solver._inner_core
    base = []  # the error bound of the current base value
    trials = []

    def checked(slab, t, vm, ceiling, value_bound, res_cap):
        out = core(slab, t, vm, ceiling, value_bound, res_cap)
        _, _, value, res, _, _, status, bound = out
        if status == "converged":
            assert bound == 0.0 <= res <= lg.SolverConfig.inner_tol or (
                res <= res_cap and 0.0 < bound <= value_bound)
        if ceiling == np.inf:  # a start's first solve or a base refinement
            base[:] = [bound]
        else:
            trials.append((base[0], value_bound))
            if status == "converged" and value <= ceiling:
                base[:] = [bound]
        return out

    use_cores(monkeypatch, 1)
    monkeypatch.setattr(solver, "_inner_core", checked)
    lg.outer_minimize(lg.SiteTerms(split, model, 0.4 * constants.rho_max, constants.weight),
                      lg.SolverConfig(seed=0, multistart=5))
    assert trials and all(bound <= value_bound for bound, value_bound in trials)
    assert any(bound > 0.0 for bound, _ in trials)
