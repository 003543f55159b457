import numpy as np
import pytest

import latticegap as lg
from latticegap.continuation import superquadratic_mass
from latticegap.energy import state_record
from latticegap.errors import InvalidInputError
from latticegap.solver import _coords_grad, _Slab

from conftest import eigenvector_matrix, random_field
from oracle_lattice import inner_l2


def eigvec_field(split, index):
    return lg.LatticeField(split.box, eigenvector_matrix(split)[:, index])


class TestEvaluateEnergy:
    def test_zero_field(self, split_r2, model):
        report = lg.evaluate_energy(lg.SiteTerms(split_r2, model, 0.0),
                                    lg.zero_field(split_r2.box))
        assert report.value == 0.0

    def test_positive_eigenvector_quadratic_only(self, split_r2):
        i = split_r2.negative_count
        lam = split_r2.eigenvalues[i]
        report = lg.evaluate_energy(lg.SiteTerms(split_r2, lg.ZeroNonlinearity(), 0.0),
                                    eigvec_field(split_r2, i))
        assert abs(report.value - lam / 2.0) < 1e-12

    def test_parts_identity(self, split_r2, model):
        rng = np.random.default_rng(0)
        for rho in (0.0, 0.05):
            u = random_field(split_r2.box, rng)
            rep = lg.evaluate_energy(lg.SiteTerms(split_r2, model, rho), u)
            assert abs(rep.value - (rep.quadratic - rep.hardy - rep.nonlinear)) \
                <= 1e-12 * max(1.0, abs(rep.value))

    def test_split_formula_matches_quadratic_form(self, split_r2, model):
        # independent evaluation: 1/2 (Au, u)_2 via the sparse matrix
        rng = np.random.default_rng(1)
        A = split_r2.operator
        terms = lg.SiteTerms(split_r2, model, 0.05)
        for _ in range(10):
            u = random_field(split_r2.box, rng)
            rep = lg.evaluate_energy(terms, u)
            quad = 0.5 * float(u.values @ (A @ u.values))
            direct = quad - rep.hardy - rep.nonlinear
            assert abs(rep.value - direct) <= 1e-10 * max(1.0, abs(rep.value))

    def test_box_mismatch(self, split_r2, model):
        with pytest.raises(InvalidInputError):
            lg.evaluate_energy(lg.SiteTerms(split_r2, model, 0.0),
                               lg.delta_field(lg.BoxDomain(3, 1)))

    @pytest.mark.parametrize("rho", [float("nan"), -0.1, float("inf")])
    def test_bad_rho_rejected(self, split_r2, model, rho):
        # the functional these functions take refuses the coupling when it
        # is built: a NaN coupling must not be read as rho = 0 (no Hardy term)
        with pytest.raises(InvalidInputError, match="rho must be >= 0"):
            lg.SiteTerms(split_r2, model, rho)


class TestGradient:
    def test_zero_field(self, split_r2, model):
        g = lg.gradient(lg.SiteTerms(split_r2, model, 0.3),
                        lg.zero_field(split_r2.box))
        assert np.all(g.values == 0.0)

    def test_linear_case_is_operator(self, split_r2):
        u = random_field(split_r2.box, np.random.default_rng(2))
        g = lg.gradient(lg.SiteTerms(split_r2, lg.ZeroNonlinearity(), 0.0), u)
        np.testing.assert_array_equal(g.values, split_r2.operator @ u.values)

    @pytest.mark.parametrize("rho", [0.0, 0.08])
    def test_finite_difference_check(self, split_r2, model, rho):
        rng = np.random.default_rng(3)
        u = random_field(split_r2.box, rng)
        terms = lg.SiteTerms(split_r2, model, rho)
        g = lg.gradient(terms, u)
        h = 1e-5
        for _ in range(20):
            phi = random_field(split_r2.box, rng)
            plus = lg.evaluate_energy(
                terms, lg.LatticeField(u.box, u.values + h * phi.values)).value
            minus = lg.evaluate_energy(
                terms, lg.LatticeField(u.box, u.values - h * phi.values)).value
            fd = (plus - minus) / (2 * h)
            assert abs(inner_l2(g, phi) - fd) <= 1e-6 * (1 + lg.lp_norm(phi, 2))


class TestNehariResidual:
    def test_zero_field(self, split_r2, model):
        res = lg.nehari_residual(lg.SiteTerms(split_r2, model, 0.0),
                                 lg.zero_field(split_r2.box))
        assert res.along_u == res.along_minus == res.full == 0.0

    def test_scalar_root_on_positive_eigenvector(self, split_r2, model):
        # along_u(t e) = lambda t^2 - t^4 sum e^4 vanishes at the positive root
        i = split_r2.negative_count
        lam = split_r2.eigenvalues[i]
        e = eigenvector_matrix(split_r2)[:, i]
        t_star = np.sqrt(lam / np.sum(e ** 4))
        u = lg.LatticeField(split_r2.box, t_star * e)
        terms = lg.SiteTerms(split_r2, model, 0.0)
        res = lg.nehari_residual(terms, u)
        assert abs(res.along_u) <= 1e-10 * (1 + t_star ** 2)
        # and the scalar profile really crosses zero there
        for t in (0.5 * t_star, 2.0 * t_star):
            u_t = lg.LatticeField(split_r2.box, t * e)
            assert lg.nehari_residual(terms, u_t).along_u != 0.0

    def test_components_consistent_with_gradient(self, split_r2, model):
        rng = np.random.default_rng(4)
        u = random_field(split_r2.box, rng)
        terms = lg.SiteTerms(split_r2, model, 0.05)
        res = lg.nehari_residual(terms, u)
        g = lg.gradient(terms, u)
        assert abs(res.along_u - inner_l2(g, u)) < 1e-12 * (1 + abs(res.along_u))
        pg = lg.project(split_r2, g, "minus")
        assert abs(res.along_minus - lg.lp_norm(pg, 2)) < 1e-10
        assert abs(res.full - lg.lp_norm(g, 2)) < 1e-12 * (1 + res.full)


def count_derivations(monkeypatch) -> list:
    """Log every J' ("gradient") and every `coords_of` (its part) from now on."""
    gradient, coords_of = lg.SiteTerms.gradient, lg.SpectralSplit.coords_of
    calls = []

    def counted_gradient(terms, values):
        calls.append("gradient")
        return gradient(terms, values)

    def counted_coords_of(split, values, part="all"):
        calls.append(part)
        return coords_of(split, values, part)

    monkeypatch.setattr(lg.SiteTerms, "gradient", counted_gradient)
    monkeypatch.setattr(lg.SpectralSplit, "coords_of", counted_coords_of)
    return calls


# each reader of a state with what it derives from a plain field
READERS = [(lg.evaluate_energy, ["all"]),
           (lg.nehari_residual, ["gradient", "all"]),
           (lg.maximality_certificate, ["gradient", "all"])]
READER_IDS = [reader.__name__ for reader, _ in READERS]


class TestOnePath:
    """Every reader of a state goes through its `StateRecord`, which derives
    E^T u, J'(u) and E^T r on first read and keeps them."""

    @pytest.fixture
    def terms(self, split_r2, model):
        return lg.SiteTerms(split_r2, model, 0.05)

    @pytest.fixture
    def u(self, split_r2):
        return random_field(split_r2.box, np.random.default_rng(4))

    @pytest.mark.parametrize("reader, derived", READERS, ids=READER_IDS)
    def test_plain_field_derives_only_what_is_read(self, monkeypatch, terms, u,
                                                   reader, derived):
        want = reader(terms, state_record(terms, u))
        calls = count_derivations(monkeypatch)
        assert reader(terms, u) == want
        assert calls == derived

    def test_record_derives_each_member_once(self, monkeypatch, terms, u):
        state = state_record(terms, u)
        calls = count_derivations(monkeypatch)
        first = [reader(terms, state) for reader, _ in READERS]
        assert calls == ["all", "gradient", "all"]
        assert [reader(terms, state) for reader, _ in READERS] == first
        assert calls == ["all", "gradient", "all"]
        assert state_record(terms, state) is state

    @pytest.mark.parametrize("reader, derived", READERS, ids=READER_IDS)
    def test_record_under_other_terms_read_as_plain(self, monkeypatch, split_r2,
                                                    model, terms, u, reader,
                                                    derived):
        other = state_record(lg.SiteTerms(split_r2, model, 0.0), u)
        other.coords, other.gradient_coords  # derived under the other terms
        want = reader(terms, u)
        calls = count_derivations(monkeypatch)
        assert reader(terms, other) == want
        assert calls == derived

    def test_handed_gradient_is_kept(self, monkeypatch, terms, u):
        r = terms.gradient(u.values)
        calls = count_derivations(monkeypatch)
        assert state_record(terms, u, r).gradient is r
        assert calls == []


class TestSuperquadraticIdentity:
    def test_energy_minus_half_pairing_is_mass(self, split_r2, model):
        # J(u) - 1/2 <J'(u), u> = sum G(x, u) as an algebraic identity,
        # for arbitrary fields and any admissible rho
        rng = np.random.default_rng(5)
        for rho in (0.0, 0.07):
            terms = lg.SiteTerms(split_r2, model, rho)
            for _ in range(10):
                u = random_field(split_r2.box, rng)
                J = lg.evaluate_energy(terms, u).value
                pairing = lg.nehari_residual(terms, u).along_u
                lhs = J - 0.5 * pairing
                rhs = superquadratic_mass(model, u)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestRhoNormPlus:
    def test_rho_zero_is_split_norm(self, split_r2):
        u = lg.project(split_r2, random_field(split_r2.box, np.random.default_rng(6)),
                       "plus")
        assert abs(lg.rho_norm_plus(split_r2, u, 0.0)
                   - lg.split_inner(split_r2, u, u)) < 1e-12

    def test_positive_eigenvector_value(self, split_r2):
        i = split_r2.negative_count
        lam = split_r2.eigenvalues[i]
        e = eigvec_field(split_r2, i)
        rho = 0.01
        w = lg.EUCLIDEAN_WEIGHT.on_box(split_r2.box)
        expected = lam - rho * float(np.sum(w * e.values ** 2))
        value = lg.rho_norm_plus(split_r2, e, rho)
        assert abs(value - expected) < 1e-12
        assert value > 0


class TestSolverAgreement:
    """evaluate_energy/gradient and the solver's eigencoordinate forms are
    one functional: they must agree on arbitrary fields."""

    @pytest.mark.parametrize("rho", [0.0, 0.05])
    def test_energy_and_gradient_match_solver(self, split_r2, model, rho):
        terms = lg.SiteTerms(split_r2, model, rho)
        nneg = split_r2.negative_count
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = random_field(split_r2.box, rng)
            c = split_r2.coords_of(u.values)
            value = lg.evaluate_energy(terms, u).value
            slab_value = _Slab(terms, c[nneg:]).value(1.0, c[:nneg], u.values)
            assert abs(value - slab_value) <= 1e-12 * abs(value)
            g = lg.gradient(terms, u).values
            g_solver = eigenvector_matrix(split_r2) @ _coords_grad(
                terms, c, split_r2.values_of(c))
            assert np.linalg.norm(g - g_solver) <= 1e-12 * np.linalg.norm(g)
