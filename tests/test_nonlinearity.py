import numpy as np
import pytest

import latticegap as lg
from latticegap.errors import InvalidInputError
from latticegap.nonlinearity import N_POINTS, U_MAX, CustomNonlinearity

from oracle_nonlinearity import check_primitive, evaluate


@pytest.fixture
def power4():
    return lg.PowerNonlinearity(4.0)


def linear_model():
    return CustomNonlinearity(
        f_fn=lambda u: u, F_fn=lambda u: u ** 2 / 2.0, df_fn=lambda u: np.ones_like(u),
        growth_a=1.0, growth_p=3.0, gap_b=None, gap_q=None)


def saturating_model():
    # f = u^3 / (1 + u^2): superlinear near 0 but F grows like u^2/2
    return CustomNonlinearity(
        f_fn=lambda u: u ** 3 / (1.0 + u ** 2),
        F_fn=lambda u: 0.5 * u ** 2 - 0.5 * np.log1p(u ** 2),
        df_fn=lambda u: (u ** 4 + 3.0 * u ** 2) / (1.0 + u ** 2) ** 2,
        growth_a=1.0, growth_p=4.0, vanishing_a0=1.0, vanishing_e=2.0,
        gap_b=None, gap_q=None)


class TestEvaluate:
    def test_power4_point_values(self, power4):
        f, F, df = evaluate(power4, 2.0)
        assert (f, F, df) == (8.0, 4.0, 12.0)

    def test_zero(self, power4):
        f, F, df = evaluate(power4, 0.0)
        assert (f, F) == (0.0, 0.0)

    def test_odd_f_even_F(self, power4):
        f, F, _ = evaluate(power4, -2.0)
        assert (f, F) == (-8.0, 4.0)

    def test_nonfinite_rejected(self, power4):
        with pytest.raises(InvalidInputError):
            evaluate(power4, np.nan)

    def test_exponent_validated(self):
        with pytest.raises(InvalidInputError):
            lg.PowerNonlinearity(2.0)


class TestConsistency:
    def test_primitive_matches_quadrature(self, power4):
        us = np.array([-3.0, -1.2, -0.1, 0.2, 1.0, 2.5])
        assert check_primitive(power4, us, panels=10000) <= 1e-8

    def test_quadrature_fallback_for_missing_primitive(self):
        # the Simpson quadrature that once stood in for a missing F_fn is
        # now only the oracle: it must agree with the closed form, and a
        # model without F_fn is refused instead of integrated
        model = CustomNonlinearity(
            f_fn=lambda u: u ** 3, F_fn=lambda u: u ** 4 / 4.0,
            df_fn=lambda u: 3.0 * u ** 2)
        us = np.array([-2.0, 0.5, 1.5])
        np.testing.assert_allclose(model.F(us), us ** 4 / 4.0, atol=1e-10)
        assert check_primitive(model, us) <= 1e-10
        with pytest.raises(InvalidInputError, match="F_fn"):
            CustomNonlinearity(f_fn=lambda u: u ** 3,
                               df_fn=lambda u: 3.0 * u ** 2)

    @pytest.mark.parametrize("missing", ["F_fn", "df_fn"])
    def test_custom_model_needs_closed_forms(self, missing):
        # no quadrature or finite-difference fallback: F and df are required
        fns = {"f_fn": lambda u: u ** 3, "F_fn": lambda u: u ** 4 / 4.0,
               "df_fn": lambda u: 3.0 * u ** 2}
        del fns[missing]
        with pytest.raises(InvalidInputError, match=missing):
            CustomNonlinearity(**fns, growth_a=1.0, growth_p=4.0,
                               gap_b=0.25, gap_q=4.0)

    def test_df_matches_finite_differences(self, power4):
        h = 1e-5
        rng = np.random.default_rng(0)
        us = np.concatenate([rng.uniform(0.2, 4.0, 40), rng.uniform(-4.0, -0.2, 40)])
        fd = (power4.f(us + h) - power4.f(us - h)) / (2 * h)
        assert np.max(np.abs(power4.df(us) - fd)) <= 1e-6

    def test_sign_identity_pointwise(self, power4):
        us = np.linspace(-10, 10, 2001)
        fs, Fs = power4.f(us), power4.F(us)
        assert np.all(fs * us >= 2 * Fs - 1e-12)
        assert np.all(Fs >= 0)

    def test_power_gap_constants(self):
        # f u - 2F = (1 - 2/p) |u|^p
        for p in (2.5, 3.0, 4.0, 6.0):
            model = lg.PowerNonlinearity(p)
            us = np.linspace(-5, 5, 101)
            gap = model.f(us) * us - 2 * model.F(us)
            np.testing.assert_allclose(gap, (1 - 2 / p) * np.abs(us) ** p, atol=1e-12)
            assert model.gap_b == (p - 2) / p and model.gap_q == p


class TestValidator:
    def test_power4_passes_everything(self, power4):
        report = lg.validate_hypotheses(power4)
        assert report.all_passed, report.failed_names()
        assert set(report.checks) == {
            "growth_envelope", "vanishing_at_zero",
            "superquadratic_growth", "monotone_slope", "superquadratic_gap",
            "sign_condition"}

    @pytest.mark.parametrize("p", [4.0, 6.25, 8.0, 20.0, 100.0, 300.0])
    def test_power_model_passes_at_any_exponent(self, p):
        # the margins compare terms up to U_MAX^p; rounding is judged
        # against those terms, not against the largest margin
        report = lg.validate_hypotheses(lg.PowerNonlinearity(p))
        assert report.all_passed, report.failed_names()

    @pytest.mark.parametrize("p", [2.2, 2.5, 2.9, 3.0, 3.2, 3.5, 4.0, 20.0, 300.0])
    def test_passing_checks_report_relative_margins(self, p):
        # every check reports its least margin relative to the terms it
        # compares, capped at 0, so a passing one lies within the rounding
        # allowance; absolute margins of U_MAX^p-sized terms would not
        report = lg.validate_hypotheses(lg.PowerNonlinearity(p))
        assert report.all_passed, report.failed_names()
        for check in report.checks.values():
            assert -1e-10 <= check.worst_violation <= 0.0, check

    @pytest.mark.parametrize("p, failing", [
        (308.3, "superquadratic_gap"), (400.0, "growth_envelope")])
    def test_refused_exponents_raise_no_warning(self, p, failing):
        # from p = 308.3 on, U_MAX^p overflows and the NaN margins fail
        # without a RuntimeWarning (the suite's filterwarnings = error would
        # turn one into a failure)
        report = lg.validate_hypotheses(lg.PowerNonlinearity(p))
        assert failing in report.failed_names()

    def test_growth_follows_the_gap_bound(self, power4):
        # superquadratic growth is derived from the gap bound (b > 0, q > 2)
        # and the sign condition, not sampled at a threshold
        report = lg.validate_hypotheses(power4)
        growth = report.checks["superquadratic_growth"]
        assert growth.passed and "gap bound" in growth.detail
        # b = 0 makes the gap bound the sign condition, which gives no growth
        flat_gap = CustomNonlinearity(
            f_fn=power4.f, F_fn=power4.F, df_fn=power4.df,
            growth_a=1.0, growth_p=4.0, gap_b=0.0, gap_q=4.0)
        report = lg.validate_hypotheses(flat_gap)
        assert report.checks["superquadratic_gap"].passed
        assert not report.checks["superquadratic_growth"].passed

    @pytest.mark.parametrize("undeclared, name, missing", [
        (("growth_a", "growth_p"), "growth_envelope", "a=None, p=None"),
        (("gap_b", "gap_q"), "superquadratic_gap", "b=None, q=None"),
        (("vanishing_a0", "vanishing_e"), "vanishing_at_zero", "a0=None, e=None")])
    def test_missing_constants_fail_and_say_so(self, power4, undeclared, name,
                                               missing):
        constants = dict(growth_a=1.0, growth_p=4.0, vanishing_a0=1.0,
                         vanishing_e=2.0, gap_b=0.5, gap_q=4.0)
        constants.update(dict.fromkeys(undeclared))
        model = CustomNonlinearity(f_fn=power4.f, F_fn=power4.F, df_fn=power4.df,
                                   **constants)
        check = lg.validate_hypotheses(model).checks[name]
        assert not check.passed and missing in check.detail

    @pytest.mark.parametrize("e", [0.0, -0.5])
    def test_vanishing_needs_a_positive_exponent(self, power4, e):
        # |u|^3 <= |u|^(1+e) holds on |u| <= 1 for every e <= 2, but only
        # e > 0 says that f vanishes faster than linearly
        model = CustomNonlinearity(f_fn=power4.f, F_fn=power4.F, df_fn=power4.df,
                                   growth_a=1.0, growth_p=4.0, vanishing_a0=1.0,
                                   vanishing_e=e, gap_b=0.5, gap_q=4.0)
        assert lg.validate_hypotheses(model).failed_names() == ["vanishing_at_zero"]

    @pytest.mark.parametrize("p", [4.0, 12.0, 20.0])
    def test_slope_dip_refused_at_any_exponent(self, p):
        # f(u)/|u| falls by about 0.03 per grid step near |u| = 0.5; at
        # large p that is far below 1e-10 of the largest slope (1e10 at
        # p = 12), so only a tolerance local to the step sees it
        def f(u):
            dip = 0.5 * u * np.exp(-(np.abs(u) - 0.5) ** 2 / 0.01)
            return np.abs(u) ** (p - 2.0) * u + u ** 3 - dip

        model = CustomNonlinearity(
            f_fn=f, F_fn=lambda u: np.abs(u) ** p / p + u ** 4 / 4.0,
            df_fn=lambda u: (p - 1.0) * np.abs(u) ** (p - 2.0) + 3.0 * u ** 2,
            growth_a=2.0, growth_p=p, gap_b=0.1, gap_q=4.0)
        assert not lg.validate_hypotheses(model).checks["monotone_slope"].passed

    def test_linear_fails_zero_slope_and_growth(self):
        report = lg.validate_hypotheses(linear_model())
        failed = report.failed_names()
        assert "vanishing_at_zero" in failed
        assert "superquadratic_growth" in failed

    def test_saturating_fails_superquadratic_growth(self):
        report = lg.validate_hypotheses(saturating_model())
        assert "superquadratic_growth" in report.failed_names()
        assert report.checks["vanishing_at_zero"].passed

    def test_zero_model_fails(self):
        report = lg.validate_hypotheses(lg.ZeroNonlinearity())
        assert not report.all_passed

    def test_grid_preconditions(self, power4):
        # the grid is fixed: it spans [-10, 10] with 2000 points and cannot
        # be narrowed or thinned by the caller
        assert U_MAX >= 10.0 and N_POINTS >= 1000
        with pytest.raises(TypeError):
            lg.validate_hypotheses(power4, u_max=5.0)
        with pytest.raises(TypeError):
            lg.validate_hypotheses(power4, n_points=100)

    def test_report_serializable(self, power4):
        report = lg.validate_hypotheses(power4)
        data = report.to_dict()
        assert data["all_passed"] is True
        assert all({"name", "passed", "worst_violation", "worst_u", "detail"}
                   <= set(c) for c in data["checks"].values())
