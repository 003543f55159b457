import dataclasses

import numpy as np
import pytest

import latticegap as lg
from latticegap import continuation, solver
from latticegap.continuation import SweepRecord, superquadratic_mass
from latticegap.energy import NehariResidual
from latticegap.errors import InvalidInputError, RhoOutOfRangeError

from conftest import random_field
from oracle_lattice import recenter


class TestRecenter:
    def test_already_centered(self):
        box = lg.BoxDomain(3, 2)
        values = np.zeros(box.site_count)
        values[box.index_of((0, 0, 0))] = 2.0
        values[box.index_of((1, 0, 0))] = 1.0
        centered, shift = recenter(lg.LatticeField(box, values))
        assert tuple(shift) == (0, 0, 0)
        np.testing.assert_array_equal(centered.values, values)

    def test_moves_peak_to_origin(self):
        box = lg.BoxDomain(3, 2)
        u = lg.delta_field(box, (2, 0, 0))
        centered, shift = recenter(u)
        assert tuple(shift) == (2, 0, 0)
        assert centered.at((0, 0, 0)) == 1.0
        assert lg.lp_norm(centered, 1) == 1.0

    def test_tie_break_lexicographic(self):
        box = lg.BoxDomain(3, 2)
        values = np.zeros(box.site_count)
        values[box.index_of((1, 0, 0))] = 1.0
        values[box.index_of((0, 1, 0))] = -1.0  # |u| ties; (0,1,0) < (1,0,0)
        _, shift = recenter(lg.LatticeField(box, values))
        assert tuple(shift) == (0, 1, 0)

    def test_idempotent(self):
        box = lg.BoxDomain(3, 3)
        u = random_field(box, np.random.default_rng(0))
        once, _ = recenter(u)
        twice, extra = recenter(once)
        assert tuple(extra) == (0, 0, 0)
        np.testing.assert_array_equal(twice.values, once.values)

    def test_zero_field_rejected(self):
        with pytest.raises(InvalidInputError):
            recenter(lg.zero_field(lg.BoxDomain(3, 1)))


class TestSweepPlan:
    def test_valid_plan(self):
        plan = lg.SweepPlan((0.4, 0.2, 0.1, 0.0))
        assert plan.rho_values == (0.4, 0.2, 0.1, 0.0)

    @pytest.mark.parametrize("values", [
        (0.1, 0.2, 0.0),      # not descending
        (0.2, 0.2, 0.0),      # not distinct
        (0.4, 0.2),           # does not end at 0
        (0.4, -0.1, 0.0),     # negative
        (float("nan"), 0.0),  # not a number
        (float("inf"), 0.0),  # infinite
        (),                   # empty
    ])
    def test_invalid_plans_rejected(self, values):
        with pytest.raises(InvalidInputError):
            lg.SweepPlan(values)


def synthetic_records(c0, gaps, rhos, d=0.01, u_norm=3.0):
    scale = max(gaps) or 1.0
    records = []
    for rho, gap in zip(rhos, gaps):
        records.append(SweepRecord(
            rho=rho, c_rho=c0 - gap, residual=NehariResidual(0.0, 0.0, 1e-10),
            sum_G=c0 - gap, u_norm=u_norm,
            d_to_baseline=d * gap / scale, d_l2=d))
    baseline = SweepRecord(
        rho=0.0, c_rho=c0, residual=NehariResidual(0.0, 0.0, 1e-10),
        sum_G=c0, u_norm=u_norm,
        d_to_baseline=0.0, d_l2=0.0)
    return records, baseline


class TestConvergenceReport:
    def test_linear_gap_fits_slope_one(self):
        rhos = (0.4, 0.2, 0.1, 0.05)
        records, baseline = synthetic_records(2.0, [0.3 * r for r in rhos], rhos)
        report = lg.convergence_report(records, baseline)
        assert abs(report["slope"] - 1.0) <= 0.01
        assert report["flags"]["level_ordering_ok"]
        assert report["flags"]["gaps_non_increasing"]
        assert not report["flags"]["slope_suspicious"]

    def test_constant_levels_indeterminate(self):
        rhos = (0.4, 0.2, 0.1)
        records, baseline = synthetic_records(2.0, [0.0, 0.0, 0.0], rhos)
        report = lg.convergence_report(records, baseline)
        assert report["slope"] == "indeterminate"
        assert report["usable_fit_points"] == 0

    def test_slow_decay_flagged(self):
        rhos = (0.4, 0.2, 0.1, 0.05)
        records, baseline = synthetic_records(2.0, [0.1 * r ** 0.2 for r in rhos], rhos)
        report = lg.convergence_report(records, baseline)
        assert report["flags"]["slope_suspicious"]

    def test_baseline_must_be_uncoupled(self):
        rhos = (0.4, 0.2, 0.1)
        records, baseline = synthetic_records(2.0, [0.3, 0.2, 0.1], rhos)
        with pytest.raises(InvalidInputError, match="baseline record must have rho = 0"):
            lg.convergence_report(records, dataclasses.replace(baseline, rho=0.05))

    def test_needs_three_records(self):
        rhos = (0.4, 0.2)
        records, baseline = synthetic_records(2.0, [0.1, 0.05], rhos)
        with pytest.raises(InvalidInputError):
            lg.convergence_report(records, baseline)


@pytest.fixture(scope="module")
def small_sweep(split_r3, model):
    constants = lg.compute_constants(split_r3)
    cfg = lg.SolverConfig(seed=5, multistart=3, max_boundary_mass=0.25)
    plan = lg.SweepPlan(tuple(f * constants.rho_max for f in (0.4, 0.2, 0.1)) + (0.0,))
    records = lg.sweep_rho(plan, split_r3, model, cfg, constants=constants)
    return records, constants


class TestSweep:
    def test_records_in_plan_order_with_residuals(self, small_sweep):
        records, _ = small_sweep
        assert [r.rho for r in records] == sorted([r.rho for r in records],
                                                  reverse=True)
        assert records[-1].rho == 0.0
        for rec in records:
            assert rec.residual.full <= 1e-8 * (1 + np.sqrt(rec.u_norm))
            assert np.isfinite(rec.d_to_baseline)

    def test_level_ordering_against_baseline(self, small_sweep):
        records, _ = small_sweep
        c0 = records[-1].c_rho
        for rec in records[:-1]:
            assert rec.c_rho <= c0 + 1e-8

    def test_level_equals_superquadratic_mass(self, small_sweep):
        for rec in small_sweep[0]:
            assert abs(rec.c_rho - rec.sum_G) <= 1e-8 * max(1.0, rec.c_rho)

    def test_distances_decrease_to_zero(self, small_sweep):
        records, _ = small_sweep
        ds = [r.d_to_baseline for r in records]
        assert ds[-1] == 0.0
        assert all(b <= a + 1e-10 for a, b in zip(ds[:-1], ds[1:-1] + [0.0]))

    def test_report_on_real_sweep(self, small_sweep):
        records, _ = small_sweep
        report = lg.convergence_report(records[:-1], records[-1])
        assert report["flags"]["level_ordering_ok"]
        assert report["flags"]["gaps_non_increasing"]
        assert isinstance(report["slope"], float)

    def test_abort_attaches_partial_records(self, monkeypatch, split_r3, model):
        # a numerical failure at the baseline aborts the sweep and hands
        # back the coupling solved before it
        constants = lg.compute_constants(split_r3)
        solve = continuation.solve_ground_state

        def failing_at_zero(split, model, rho, *args, **kwargs):
            if rho == 0.0:
                raise lg.ConvergenceError("no start converged")
            return solve(split, model, rho, *args, **kwargs)

        monkeypatch.setattr(continuation, "solve_ground_state", failing_at_zero)
        plan = lg.SweepPlan((0.1 * constants.rho_max, 0.0))
        cfg = lg.SolverConfig(seed=5, multistart=1)
        with pytest.raises(lg.ConvergenceError,
                           match="sweep aborted at rho = 0.0") as info:
            lg.sweep_rho(plan, split_r3, model, cfg, constants=constants)
        assert [r.rho for r in info.value.partial_records] == [plan.rho_values[0]]

    def test_polish_refusal_mid_sweep_keeps_partial_records(
            self, monkeypatch, split_r3, model):
        # a candidate too far from critical for the polish is a stalled
        # search, a numerical failure, wherever in the sweep it surfaces
        constants = lg.compute_constants(split_r3)
        outer = solver.outer_minimize

        def off_at_zero(terms, *args, **kwargs):
            result = outer(terms, *args, **kwargs)
            if terms.rho == 0.0:
                result.u = lg.LatticeField(terms.split.box, 1.5 * result.u.values)
            return result

        monkeypatch.setattr(solver, "outer_minimize", off_at_zero)
        plan = lg.SweepPlan((0.1 * constants.rho_max, 0.0))
        cfg = lg.SolverConfig(seed=5, multistart=1)
        with pytest.raises(lg.ConvergenceError,
                           match="sweep aborted at rho = 0.0: residual") as info:
            lg.sweep_rho(plan, split_r3, model, cfg, constants=constants)
        assert [r.rho for r in info.value.partial_records] == [plan.rho_values[0]]

    def test_input_error_propagates(self, potential, band_table, model):
        # on an R = 1 box every site lies in the boundary layer; the solve's
        # input error reaches the caller as is, not as a numerical failure
        box = lg.BoxDomain(3, 1)
        split = lg.spectral_split(box, lg.assemble_operator(box, potential),
                                  band_table.gap)
        with pytest.raises(InvalidInputError, match="boundary_layers = 1"):
            lg.sweep_rho(lg.SweepPlan((0.0,)), split, model)

    def test_inadmissible_coupling_propagates(self, split_r3, model):
        # a hypothesis violation reaches the caller unwrapped, before any solve
        constants = lg.compute_constants(split_r3)
        plan = lg.SweepPlan((2.0 * constants.rho_max, 0.0))
        cfg = lg.SolverConfig(seed=5, multistart=2)
        with pytest.raises(RhoOutOfRangeError, match="exceeds 0.9 \\* rho_max"):
            lg.sweep_rho(plan, split_r3, model, cfg, constants=constants)


class TestSuperquadraticMass:
    def test_quartic_closed_form(self, model):
        box = lg.BoxDomain(3, 1)
        u = random_field(box, np.random.default_rng(1))
        expected = 0.25 * np.sum(u.values ** 4)
        assert abs(superquadratic_mass(model, u) - expected) <= 1e-12 * (1 + expected)

    def test_zero_for_zero_model(self):
        box = lg.BoxDomain(3, 1)
        u = random_field(box, np.random.default_rng(2))
        assert superquadratic_mass(lg.ZeroNonlinearity(), u) == 0.0
