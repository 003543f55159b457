import numpy as np
import pytest

import latticegap as lg
from latticegap import hardy
from latticegap.errors import InvalidInputError, NumericalError, RhoOutOfRangeError

from conftest import random_field
from oracle_constants import kappa_lanczos, rho_plus_descent
from oracle_lattice import inner_l2, translate


class TestHardyWeight:
    def test_basic_values(self):
        box = lg.BoxDomain(3, 2)
        w = lg.EUCLIDEAN_WEIGHT.on_box(box)
        assert w[box.index_of((0, 0, 0))] == 1.0
        assert w[box.index_of((1, 0, 0))] == 0.5
        assert w[box.index_of((1, 1, 1))] == 0.25
        assert np.all(w > 0) and np.all(w <= 1)

    def test_graph_metric_differs_off_axis(self):
        box = lg.BoxDomain(3, 2)
        wg = lg.GRAPH_WEIGHT.on_box(box)
        assert wg[box.index_of((1, 1, 0))] == 1.0 / 5.0  # (|x|_1)^2 + 1 = 5
        we = lg.EUCLIDEAN_WEIGHT.on_box(box)
        assert we[box.index_of((1, 1, 0))] == 1.0 / 3.0

    def test_radially_non_increasing(self):
        box = lg.BoxDomain(3, 3)
        w = lg.EUCLIDEAN_WEIGHT.on_box(box)
        order = np.argsort(box.squared_norms)
        assert np.all(np.diff(w[order]) <= 0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidInputError):
            lg.HardyWeight("chebyshev")


class TestWeightedMass:
    def test_delta_examples(self):
        box = lg.BoxDomain(3, 2)
        assert lg.weighted_mass(lg.delta_field(box), 1.0) == 1.0
        assert lg.weighted_mass(lg.delta_field(box, (1, 0, 0)), 2.0) == 1.0
        assert lg.weighted_mass(random_field(box, np.random.default_rng(0)), 0.0) == 0.0

    def test_negative_rho_rejected(self):
        box = lg.BoxDomain(3, 1)
        for rho in (-0.5, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                lg.weighted_mass(lg.delta_field(box), rho)

    def test_translation_decay(self):
        # mass of a compactly supported bump decays once the shift clears its
        # support, with the explicit 1/(|shift| - r)^2 envelope
        box = lg.BoxDomain(3, 10)
        values = np.zeros(box.site_count)
        support = [(0, 0, 0), (1, 0, 0), (0, -1, 0)]
        for s in support:
            values[box.index_of(s)] = 1.0
        u = lg.LatticeField(box, values)
        r = max(np.sqrt(float(np.sum(np.array(s) ** 2))) for s in support)
        l2sq = lg.lp_norm(u, 2) ** 2
        masses = []
        for n in range(2, 9):
            shift = np.array([n, 0, 0])
            m = lg.weighted_mass(translate(u, shift), 1.0)
            masses.append(m)
            assert m <= l2sq / (n - r) ** 2 + 1e-12
        assert np.all(np.diff(masses) < 0)


class TestBestHardyConstant:
    def test_single_site_value(self):
        # delta field: sum w u^2 = u(0)^2, dirichlet energy = 2N u(0)^2
        n = lg.best_hardy_constant(lg.BoxDomain(3, 0))
        assert abs(n.kappa - 1.0 / 6.0) < 1e-14

    def test_monotone_under_box_growth(self):
        k0 = lg.best_hardy_constant(lg.BoxDomain(3, 0)).kappa
        k1 = lg.best_hardy_constant(lg.BoxDomain(3, 1)).kappa
        assert k1 >= k0 - 1e-12

    def test_large_box_trend(self):
        # the Hardy extremal is heavy-tailed, so kappa(R) climbs slowly;
        # increments shrink (convergence) but are still ~10% per step at
        # R = 10.  Values pinned from the first computation.
        ks = {r: lg.best_hardy_constant(lg.BoxDomain(3, r)).kappa
              for r in (6, 8, 10)}
        assert ks[6] <= ks[8] <= ks[10]
        assert ks[10] - ks[8] < ks[8] - ks[6]
        assert ks[10] == pytest.approx(0.9924648291992252, rel=1e-9)
        assert (ks[10] - ks[8]) / ks[8] == pytest.approx(0.10316, abs=2e-4)

    def test_refuses_low_dimension(self):
        with pytest.raises(InvalidInputError, match="N >= 3"):
            lg.best_hardy_constant(lg.BoxDomain(2, 3))

    def test_witness_is_tight(self):
        result = lg.best_hardy_constant(lg.BoxDomain(3, 3))
        w = lg.EUCLIDEAN_WEIGHT.on_box(result.witness.box)
        ratio = float(np.sum(w * result.witness.values ** 2)) \
            / lg.dirichlet_energy(result.witness)
        assert abs(ratio - result.kappa) <= 1e-9 * result.kappa

    def test_loose_witness_refused(self, monkeypatch):
        energy = lg.dirichlet_energy
        monkeypatch.setattr(hardy, "dirichlet_energy", lambda u: 2.0 * energy(u))
        with pytest.raises(NumericalError, match="Hardy witness not tight"):
            lg.best_hardy_constant(lg.BoxDomain(3, 1))

    def test_dense_and_lanczos_paths_agree(self):
        # the dense even-sector pencil against Lanczos on the whole box
        box = lg.BoxDomain(3, 3)
        dense = lg.best_hardy_constant(box).kappa
        sparse = kappa_lanczos(box, lg.EUCLIDEAN_WEIGHT)
        assert abs(dense - sparse) < 1e-9 * dense

    def test_hardy_inequality_on_random_fields(self):
        box = lg.BoxDomain(3, 3)
        kappa = lg.best_hardy_constant(box).kappa
        w = lg.EUCLIDEAN_WEIGHT.on_box(box)
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = random_field(box, rng)
            lhs = float(np.sum(w * u.values ** 2))
            assert lhs <= kappa * lg.dirichlet_energy(u) + 1e-9

    def test_graph_metric_constant_is_smaller(self):
        # the graph weight decays faster off-axis, so its best constant sits
        # below the Euclidean one (both share the single-site value 1/(2N))
        box = lg.BoxDomain(3, 3)
        graph = lg.best_hardy_constant(box, weight=lg.GRAPH_WEIGHT).kappa
        euclid = lg.best_hardy_constant(box, weight=lg.EUCLIDEAN_WEIGHT).kappa
        assert 1.0 / 6.0 < graph < euclid
        w = lg.GRAPH_WEIGHT.on_box(box)
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = random_field(box, rng)
            assert float(np.sum(w * u.values ** 2)) \
                <= graph * lg.dirichlet_energy(u) + 1e-9


class TestRhoPlus:
    def test_positive_with_tight_witness(self, split_r3):
        result = lg.rho_plus(split_r3)
        assert result.value > 0
        quotient = float(result.witness.values @ (split_r3.operator @ result.witness.values)) \
            / lg.dirichlet_energy(result.witness)
        assert abs(quotient - result.value) <= 1e-9 * result.value

    def test_loose_witness_refused(self, monkeypatch, split_r2):
        energy = lg.dirichlet_energy
        monkeypatch.setattr(hardy, "dirichlet_energy", lambda u: 2.0 * energy(u))
        with pytest.raises(NumericalError, match="rho_plus witness not tight"):
            lg.rho_plus(split_r2)

    def test_two_methods_agree(self, split_r3):
        pencil = lg.rho_plus(split_r3).value
        descent = rho_plus_descent(split_r3, n_starts=10, seed=0)
        assert abs(pencil - descent) <= 1e-6 * max(1.0, pencil)

    def test_scaling_homogeneity(self, split_r2, band_table):
        # doubling A doubles rho_plus exactly (quotient homogeneity)
        doubled = lg.SpectralSplit(split_r2.box, 2.0 * split_r2.operator,
                                   (2 * band_table.sigma_minus, 2 * band_table.sigma_plus))
        base = lg.rho_plus(split_r2).value
        twice = lg.rho_plus(doubled).value
        assert abs(twice - 2.0 * base) <= 1e-9 * base

    def test_minimum_property_on_random_plus_fields(self, split_r2):
        value = lg.rho_plus(split_r2).value
        rng = np.random.default_rng(2)
        A = split_r2.operator
        for _ in range(30):
            u = lg.project(split_r2, random_field(split_r2.box, rng), "plus")
            quad = float(u.values @ (A @ u.values))
            assert quad - value * lg.dirichlet_energy(u) >= -1e-9 * inner_l2(u, u)


class TestInequalityConstants:
    def test_arithmetic_examples(self):
        c = lg.InequalityConstants(dimension=3, radius=4, kappa=0.5, rho_plus=2.0)
        assert c.rho_tilde_plus == 1.0
        assert c.rho_max == 2.0
        c = lg.InequalityConstants(dimension=3, radius=4, kappa=0.2, rho_plus=0.3)
        assert c.rho_tilde_plus == 0.3
        assert abs(c.rho_max - 1.5) < 1e-15

    @pytest.mark.parametrize("name", ["kappa", "rho_plus"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_non_positive_constant_rejected(self, name, value):
        args = {"kappa": 0.5, "rho_plus": 2.0, name: value}
        with pytest.raises(InvalidInputError, match=name):
            lg.InequalityConstants(dimension=3, radius=4, **args)

    def test_compute_constants_bundle(self, split_r3):
        c = lg.compute_constants(split_r3)
        assert c.rho_tilde_plus == min(c.rho_plus, 1.0)
        assert c.rho_max == c.rho_tilde_plus / c.kappa
        assert c.radius == 3 and c.dimension == 3
        report = c.to_dict()
        assert set(report) == {"N", "R", "kappa", "rho_plus", "rho_tilde_plus",
                               "rho_max", "metric"}

    def test_norm_equivalence_sandwich(self, split_r3):
        # box-exact chain: ||u||^2 >= ||u||_rho^2 >= (1 - rho kappa / rho_plus) ||u||^2
        c = lg.compute_constants(split_r3)
        rho = 0.5 * c.rho_max
        factor = 1.0 - rho * c.kappa / c.rho_plus
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = lg.project(split_r3, random_field(split_r3.box, rng), "plus")
            norm2 = lg.split_inner(split_r3, u, u)
            rho_norm2 = lg.rho_norm_plus(split_r3, u, rho, constants=c)
            assert rho_norm2 <= norm2 + 1e-10 * (1 + norm2)
            assert rho_norm2 >= factor * norm2 - 1e-10 * (1 + norm2)

    def test_rho_norm_plus_guards(self, split_r3):
        c = lg.compute_constants(split_r3)
        u = random_field(split_r3.box, np.random.default_rng(4))
        with pytest.raises(InvalidInputError):
            lg.rho_norm_plus(split_r3, u, 0.1, constants=c)  # not in X^+
        uplus = lg.project(split_r3, u, "plus")
        with pytest.raises(RhoOutOfRangeError):
            lg.rho_norm_plus(split_r3, uplus, c.rho_plus / c.kappa, constants=c)
