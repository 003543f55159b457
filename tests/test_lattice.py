import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticegap as lg
from latticegap.errors import InvalidInputError

from conftest import random_field
from oracle_lattice import (carre_du_champ, inner_l2, laplacian_apply, site_of,
                            translate)


FIELD_FILE = b"-1 0.5\n0 1.0\n1 0.25\n"


@pytest.fixture
def box():
    return lg.BoxDomain(3, 2)


class TestBoxDomain:
    def test_site_count(self):
        assert lg.BoxDomain(3, 2).site_count == 125
        assert lg.BoxDomain(2, 3).site_count == 49
        assert lg.BoxDomain(3, 0).site_count == 1

    def test_enumeration_is_lexicographic_bijection(self, box):
        sites = box.sites
        assert sites.shape == (125, 3)
        for i in range(1, len(sites)):
            assert tuple(sites[i - 1]) < tuple(sites[i])
        for i, s in enumerate(sites):
            assert box.index_of(s) == i
            assert np.array_equal(site_of(box, i), s)

    def test_contains(self, box):
        assert box.contains((2, -2, 0))
        assert not box.contains((3, 0, 0))
        with pytest.raises(InvalidInputError):
            box.contains((0, 0))

    def test_rejects_bad_geometry(self):
        with pytest.raises(InvalidInputError):
            lg.BoxDomain(0, 2)
        with pytest.raises(InvalidInputError):
            lg.BoxDomain(3, -1)
        with pytest.raises(InvalidInputError):
            lg.BoxDomain(33, 0)


class TestLatticeField:
    def test_rejects_nan_and_shape(self, box):
        with pytest.raises(InvalidInputError):
            lg.LatticeField(box, np.full(box.site_count, np.nan))
        with pytest.raises(InvalidInputError):
            lg.LatticeField(box, np.zeros(7))

    def test_zero_extension(self, box):
        u = lg.delta_field(box)
        assert u.at((0, 0, 0)) == 1.0
        assert u.at((3, 0, 0)) == 0.0

    def test_values_immutable(self, box):
        u = lg.delta_field(box)
        with pytest.raises(ValueError):
            u.values[0] = 2.0


class TestLaplacian:
    def test_delta_at_spike(self, box):
        # 2N neighbors each contribute -1
        du = laplacian_apply(lg.delta_field(box))
        assert du.at((0, 0, 0)) == -6.0

    def test_delta_at_neighbors(self, box):
        du = laplacian_apply(lg.delta_field(box))
        for axis in range(3):
            for step in (1, -1):
                site = np.zeros(3, dtype=int)
                site[axis] = step
                assert du.at(site) == 1.0

    def test_constant_interior(self, box):
        u = lg.LatticeField(box, np.full(box.site_count, 3.7))
        du = laplacian_apply(u)
        assert du.at((0, 0, 0)) == 0.0
        assert du.at((1, -1, 0)) == 0.0
        # at the wall the zero extension bites
        assert du.at((2, 0, 0)) == -3.7

    def test_linearity(self, box):
        # exact up to float associativity
        rng = np.random.default_rng(0)
        u, v = random_field(box, rng), random_field(box, rng)
        a, b = 1.7, -0.3
        lhs = laplacian_apply(lg.LatticeField(box, a * u.values + b * v.values))
        rhs = a * laplacian_apply(u).values + b * laplacian_apply(v).values
        np.testing.assert_allclose(lhs.values, rhs, rtol=0, atol=1e-13)

    def test_locality(self, box):
        # changing u far from x leaves (Delta u)(x) unchanged
        rng = np.random.default_rng(1)
        u = random_field(box, rng)
        changed = u.values.copy()
        changed[box.index_of((2, 2, 2))] += 5.0
        du0 = laplacian_apply(u)
        du1 = laplacian_apply(lg.LatticeField(box, changed))
        assert du0.at((0, 0, 0)) == du1.at((0, 0, 0))
        assert du0.at((2, 2, 1)) != du1.at((2, 2, 1))

    def test_matches_matrix_assembly(self, box):
        rng = np.random.default_rng(2)
        u = random_field(box, rng)
        lap = lg.laplacian_matrix(box)
        np.testing.assert_allclose(
            -laplacian_apply(u).values, lap @ u.values, rtol=0, atol=1e-12)


class TestCarreDuChamp:
    def test_delta_values(self, box):
        u = lg.delta_field(box)
        assert carre_du_champ(u, (0, 0, 0)) == 3.0  # N at the spike
        assert carre_du_champ(u, (1, 0, 0)) == 0.5  # one differing neighbor

    def test_constant_interior(self, box):
        u = lg.LatticeField(box, np.full(box.site_count, 2.0))
        assert carre_du_champ(u, (0, 0, 0)) == 0.0

    def test_outside_box_rejected(self, box):
        with pytest.raises(InvalidInputError):
            carre_du_champ(lg.delta_field(box), (3, 0, 0))

    def test_nonnegative(self, box):
        rng = np.random.default_rng(3)
        u = random_field(box, rng)
        for site in [(0, 0, 0), (2, 2, 2), (-2, 1, 0)]:
            assert carre_du_champ(u, site) >= 0.0


class TestDirichletEnergy:
    def test_delta(self, box):
        assert lg.dirichlet_energy(lg.delta_field(box)) == 6.0  # 2N unit edges

    def test_zero(self, box):
        assert lg.dirichlet_energy(lg.zero_field(box)) == 0.0

    def test_summation_by_parts(self, box):
        # energy equals (-Delta u, u)_2 exactly under zero extension
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = random_field(box, rng)
            energy = lg.dirichlet_energy(u)
            pairing = -inner_l2(laplacian_apply(u), u)
            assert abs(energy - pairing) <= 1e-12 * max(1.0, abs(energy))

    def test_bilinear_form_symmetry(self, box):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u, v = random_field(box, rng), random_field(box, rng)
            form = lg.dirichlet_form(u, v)
            left = -inner_l2(laplacian_apply(u), v)
            right = -inner_l2(u, laplacian_apply(v))
            assert abs(form - left) <= 1e-12 * max(1.0, abs(form))
            assert abs(form - right) <= 1e-12 * max(1.0, abs(form))

    def test_gamma_sums_to_energy(self, box):
        # sum over the enlarged box of Gamma(u) is the edge-sum energy;
        # check by summing carre_du_champ over a bigger embedding box
        big = lg.BoxDomain(3, 3)
        rng = np.random.default_rng(6)
        u = random_field(box, rng)
        embedded = np.zeros(big.site_count)
        for i, s in enumerate(box.sites):
            embedded[big.index_of(s)] = u.values[i]
        ue = lg.LatticeField(big, embedded)
        total = sum(carre_du_champ(ue, s) for s in big.sites)
        assert abs(total - lg.dirichlet_energy(u)) <= 1e-12 * max(1.0, total)


class TestLpNorm:
    def test_delta_all_p(self, box):
        u = lg.delta_field(box)
        for p in (1, 2, 3.5, 10, np.inf):
            assert lg.lp_norm(u, p) == 1.0

    def test_indicator(self, box):
        values = np.zeros(box.site_count)
        values[:9] = 1.0
        u = lg.LatticeField(box, values)
        for p in (1, 2, 4):
            assert np.isclose(lg.lp_norm(u, p), 9 ** (1 / p), rtol=1e-14)
        assert lg.lp_norm(u, np.inf) == 1.0

    def test_rejects_p_below_one(self, box):
        with pytest.raises(InvalidInputError):
            lg.lp_norm(lg.delta_field(box), 0.5)

    def test_rejects_nan_p(self, box):
        with pytest.raises(InvalidInputError):
            lg.lp_norm(lg.delta_field(box), float("nan"))

    @pytest.mark.parametrize("p,q", [(2, 4), (2, 6), (4, 8)])
    def test_interpolation_inequality(self, box, p, q):
        # ||u||_q^q <= ||u||_p^p ||u||_inf^(q-p) on 100 random fields
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = random_field(box, rng)
            lhs = lg.lp_norm(u, q) ** q
            rhs = lg.lp_norm(u, p) ** p * lg.lp_norm(u, np.inf) ** (q - p)
            assert lhs <= rhs * (1 + 1e-12)


class TestTranslate:
    def test_zero_shift_is_identity(self, box):
        u = random_field(box, np.random.default_rng(8))
        np.testing.assert_array_equal(translate(u, (0, 0, 0)).values, u.values)

    def test_delta_moves_against_shift(self, box):
        u = lg.delta_field(box)
        t = translate(u, (1, 0, 0))
        assert t.at((-1, 0, 0)) == 1.0
        assert lg.lp_norm(t, 1) == 1.0

    def test_mass_never_grows(self, box):
        rng = np.random.default_rng(9)
        u = random_field(box, rng)
        for shift in [(1, 0, 0), (2, -1, 2), (0, 0, 0), (5, 5, 5)]:
            assert lg.lp_norm(translate(u, shift), 2) <= lg.lp_norm(u, 2) + 1e-14

    def test_equality_iff_no_mass_leaves(self, box):
        inner = np.zeros(box.site_count)
        inner[box.index_of((0, 0, 0))] = 2.0
        inner[box.index_of((1, 1, 0))] = -1.0
        u = lg.LatticeField(box, inner)
        assert lg.lp_norm(translate(u, (1, 0, 0)), 2) == lg.lp_norm(u, 2)

    @settings(max_examples=30, deadline=None)
    @given(shift=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
           seed=st.integers(0, 2 ** 16))
    def test_translation_composition_truncates(self, shift, seed):
        # translating there and back only ever loses mass
        box = lg.BoxDomain(2, 2)
        u = random_field(box, np.random.default_rng(seed))
        shift = np.array(shift)
        back = translate(translate(u, shift), -shift)
        assert lg.lp_norm(back, 2) <= lg.lp_norm(u, 2) + 1e-14
        # sites whose intermediate image stays inside are reproduced exactly
        for site in box.sites:
            if np.all(np.abs(site - shift) <= box.radius):
                assert back.at(site) == u.at(site)
            else:
                assert back.at(site) == 0.0


class TestFieldIO:
    def test_round_trip_lossless(self, box, tmp_path):
        u = random_field(box, np.random.default_rng(10))
        path = tmp_path / "u.field"
        lg.write_field(u, path)
        v = lg.read_field(path)
        assert v.box == box
        np.testing.assert_array_equal(v.values, u.values)

    def test_format_one_line_per_site(self, tmp_path):
        small = lg.BoxDomain(2, 1)
        u = lg.delta_field(small)
        path = tmp_path / "u.field"
        lg.write_field(u, path)
        lines = path.read_text().splitlines()
        assert len(lines) == small.site_count
        assert lines[0].split()[:2] == ["-1", "-1"]
        assert lines[len(lines) // 2] == "0 0 1"

    @pytest.mark.parametrize("bad", ["0 0 one", "0 0.5 1.0", "1.0"])
    def test_malformed_line_names_path_and_line(self, tmp_path, bad):
        small = lg.BoxDomain(2, 1)
        path = tmp_path / "u.field"
        lg.write_field(lg.delta_field(small), path)
        lines = path.read_text().splitlines()
        lines[3] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=r"u\.field:4: .*" + bad):
            lg.read_field(path)

    def test_duplicate_site_rejected(self, tmp_path):
        small = lg.BoxDomain(2, 1)
        path = tmp_path / "u.field"
        lg.write_field(lg.delta_field(small), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="twice"):
            lg.read_field(path)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "u.field"
        path.write_bytes(b"\xff\xfe 0 1.0\n")
        with pytest.raises(InvalidInputError, match=r"u\.field"):
            lg.read_field(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=64),
        # near-valid files: tokens of a field file, some of them not UTF-8
        st.lists(st.sampled_from([b"0", b"1", b"-1", b"0.5", b"nan", b"1e999",
                                  b" ", b"\n", b"\xff", b"\xc3"]),
                 max_size=24).map(b"".join),
        st.builds(lambda i, junk: FIELD_FILE[:i] + junk + FIELD_FILE[i:],
                  st.integers(0, len(FIELD_FILE)), st.binary(max_size=4))))
    def test_arbitrary_bytes_read_or_rejected(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "arbitrary.field"
        path.write_bytes(data)
        try:
            assert isinstance(lg.read_field(path), lg.LatticeField)
        except InvalidInputError:
            pass
