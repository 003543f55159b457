import numpy as np
import pytest
import scipy.linalg as sla

import latticegap as lg
from latticegap.errors import (InvalidInputError, NoSpectralGapError,
                               NumericalError, ZeroEigenvalueError)
from latticegap.spectral import load_eigenpairs, save_eigenpairs

from conftest import random_field
from oracle_bloch import bloch_matrix as oracle_bloch_matrix


def checkerboard_band_oracle(k, c=1.0, n=3):
    """Analytic band pair +-sqrt(c^2 + gamma(k)^2), gamma = 2 sum cos k_i."""
    gamma = 2.0 * np.sum(np.cos(k))
    lam = np.sqrt(c * c + gamma * gamma)
    return -lam, lam


class TestPeriodicPotential:
    def test_checkerboard_values(self):
        pot = lg.checkerboard_potential(3, 1.0)
        assert pot.period == (2, 2, 2)
        assert pot.values_at(np.array([[0, 0, 0]]))[0] == 1.0 - 6.0
        assert pot.values_at(np.array([[1, 0, 0]]))[0] == -1.0 - 6.0
        assert pot.values_at(np.array([[-1, 2, 0]]))[0] == -1.0 - 6.0

    def test_periodicity(self):
        pot = lg.checkerboard_potential(3, 0.7)
        sites = np.array([[0, 1, 2], [5, -3, 1]])
        shifted = sites + np.array(pot.period) * 3
        np.testing.assert_array_equal(pot.values_at(sites), pot.values_at(shifted))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            lg.PeriodicPotential((2, 2), np.zeros((2, 3)))


class TestAssembleOperator:
    def test_delta_interior(self):
        box = lg.BoxDomain(3, 2)
        pot = lg.constant_potential(3, 0.0)
        A = lg.assemble_operator(box, pot)
        u = lg.delta_field(box)
        assert (A @ u.values)[box.index_of((0, 0, 0))] == 6.0  # 2N + 0

    def test_exact_symmetry(self):
        box = lg.BoxDomain(3, 1)
        A = lg.assemble_operator(box, lg.checkerboard_potential(3, 1.0))
        assert abs(A - A.T).max() == 0.0

    def test_free_dirichlet_smallest_eigenvalue(self):
        # 3-point Dirichlet path eigenvalues are 2 - 2cos(k pi / 4), k=1..3;
        # the tensor sum's smallest value is 3 (2 - sqrt 2), confirmed by a
        # dense eigensolve of the 27 x 27 matrix
        box = lg.BoxDomain(3, 1)
        A = lg.assemble_operator(box, lg.constant_potential(3, 0.0))
        eigenvalues = np.linalg.eigvalsh(A.toarray())
        path = 2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / 4.0)
        tensor = np.sort((path[:, None, None] + path[None, :, None]
                          + path[None, None, :]).ravel())
        np.testing.assert_allclose(eigenvalues, tensor, rtol=0, atol=1e-12)
        assert abs(eigenvalues[0] - 3.0 * (2.0 - np.sqrt(2.0))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            lg.assemble_operator(lg.BoxDomain(2, 1), lg.checkerboard_potential(3))


class TestBlochBands:
    def test_checkerboard_matches_analytic_bands(self, potential):
        # the 8x8 cell reduction at quasimomentum k carries the plane-wave
        # classes k' with k'_i in {k_i, k_i + pi}; classes pair up under
        # k' -> k' + pi(1,1,1) (gamma flips sign), each pair contributing the
        # eigenvalue pair +-sqrt(c^2 + gamma(k')^2).  Enumerating the four
        # patterns with first component 0 lists each pair class once.
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = rng.uniform(0, 2 * np.pi, size=3)
            computed = np.sort(sla.eigvalsh(lg.bloch_matrix(potential, k)))
            expected = []
            for b in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]:
                expected.extend(checkerboard_band_oracle(k + np.pi * np.array(b)))
            expected = np.sort(expected)
            np.testing.assert_allclose(computed, expected, rtol=0, atol=1e-8)

    def test_gap_endpoints_checkerboard(self, band_table):
        assert abs(band_table.sigma_minus + 1.0) < 1e-8
        assert abs(band_table.sigma_plus - 1.0) < 1e-8
        assert abs(band_table.bands.min() + np.sqrt(37.0)) < 1e-8
        assert abs(band_table.bands.max() - np.sqrt(37.0)) < 1e-8

    def test_free_potential_has_no_gap(self):
        # spectrum [0, 4N] touches 0
        with pytest.raises(NoSpectralGapError):
            lg.bloch_band_edges(lg.constant_potential(3, 0.0))

    def test_shifted_free_band_crosses_zero(self):
        # spectrum [-2N-1, 2N-1] straddles 0 inside one band
        with pytest.raises(NoSpectralGapError):
            lg.bloch_band_edges(lg.constant_potential(3, -7.0))

    def test_grid_resolution_enforced(self, potential):
        with pytest.raises(InvalidInputError):
            lg.bloch_band_edges(potential, grid=4)

    def test_free_bands_match_fourier_symbol(self):
        # with V = const the single band is 2N + V - 2 sum cos k_i
        pot = lg.constant_potential(3, -10.0)
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = rng.uniform(0, 2 * np.pi, size=3)
            lam = sla.eigvalsh(lg.bloch_matrix(pot, k))
            symbol = 6.0 - 10.0 - 2.0 * np.sum(np.cos(k))
            assert abs(lam[0] - symbol) < 1e-10

    def test_torus_spectrum_subset_of_bands(self, potential, band_table):
        # periodic torus of 4 cells per axis: eigenvalues must appear among
        # the band values at commensurate quasimomenta
        torus = lg.assemble_torus_operator(potential, cells_per_axis=4)
        torus_eigs = np.sort(np.linalg.eigvalsh(torus.toarray()))
        band_values = np.sort(band_table.bands.ravel())
        for lam in torus_eigs:
            assert np.min(np.abs(band_values - lam)) < 1e-8

    def test_csv_export(self, band_table, tmp_path):
        path = tmp_path / "bands.csv"
        band_table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k1,k2,k3,band_index,lambda"
        assert len(lines) == 1 + 8 ** 3 * 8


def _grid8(dimension):
    ticks = 2.0 * np.pi * np.arange(8) / 8
    mesh = np.meshgrid(*[ticks] * dimension, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _oracle_potentials():
    rng = np.random.default_rng(12)
    return [lg.checkerboard_potential(3, 1.0), lg.constant_potential(3, -10.0),
            lg.PeriodicPotential((2, 3, 2), rng.normal(size=(2, 3, 2))),
            lg.PeriodicPotential((3, 3, 3), rng.normal(size=(3, 3, 3))),
            lg.PeriodicPotential((1, 2, 5), rng.normal(size=(1, 2, 5))),
            lg.checkerboard_potential(4, 1.0)]


class TestBatchedBloch:
    """The stacked build against the one-k-at-a-time loop it replaced."""

    @pytest.mark.parametrize("index", range(6))
    def test_stack_bitwise_equal_to_oracle(self, index):
        pot = _oracle_potentials()[index]
        k_points = _grid8(pot.dimension)
        stack = lg.bloch_matrix(pot, k_points)
        reference = np.stack([oracle_bloch_matrix(pot, k) for k in k_points])
        assert stack.shape == reference.shape
        assert stack.tobytes() == reference.tobytes()

    def test_single_k_gives_one_matrix(self):
        pot = _oracle_potentials()[2]
        k = np.array([0.3, 1.7, 5.9])
        mat = lg.bloch_matrix(pot, k)
        assert mat.shape == (pot.cell_size, pot.cell_size)
        assert mat.tobytes() == oracle_bloch_matrix(pot, k).tobytes()

    def test_bands_bitwise_equal_to_per_matrix_eigvalsh(self, potential,
                                                        band_table):
        reference = np.stack([sla.eigvalsh(oracle_bloch_matrix(potential, k))
                              for k in band_table.k_points])
        assert band_table.bands.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("shape", [(2,), (4,), (5, 2), ()])
    def test_wrong_last_axis_rejected(self, potential, shape):
        with pytest.raises(InvalidInputError, match="k has shape"):
            lg.bloch_matrix(potential, np.zeros(shape))


class TestSpectralSplit:
    def test_no_gap_intrusions_for_checkerboard(self, split_r4):
        # A^2 = H^2 + c^2 on the box forces |lambda| >= c: empty gap interval
        assert split_r4.intrusions == []
        assert split_r4.smallest_abs_eigenvalue >= 1.0 - 1e-9

    def test_split_index_near_half(self, split_r4):
        assert abs(split_r4.negative_count - split_r4.size / 2) < 0.05 * split_r4.size

    def test_eigen_residuals(self, split_r4):
        A = split_r4.operator
        for i in range(0, split_r4.size, 97):
            e = split_r4.eigenvectors[:, i]
            lam = split_r4.eigenvalues[i]
            res = np.linalg.norm(A @ e - lam * e)
            assert res <= 1e-9 * (1 + abs(lam))

    def test_orthonormal_eigenvectors(self, split_r2):
        E = split_r2.eigenvectors
        gram = E.T @ E
        assert np.max(np.abs(gram - np.eye(split_r2.size))) < 1e-10

    def test_zero_eigenvalue_rejected(self):
        box = lg.BoxDomain(1, 1)
        # 3-point free path has eigenvalue 2 - 2cos(pi/2) = 2; shift it to 0
        A = lg.assemble_operator(box, lg.constant_potential(1, -2.0))
        with pytest.raises(ZeroEigenvalueError):
            lg.spectral_split(box, A, (-1.0, 1.0))

    def test_dense_budget_enforced(self, potential):
        box = lg.BoxDomain(3, 9)  # 6859 sites
        with pytest.raises(InvalidInputError):
            lg.spectral_split(box, lg.assemble_operator(box, potential), (-1, 1))

    def test_coercivity_on_split_subspaces(self, split_r2):
        # (Au,u) >= sigma_plus_box ||u||^2 on X^+, and the mirrored bound on X^-
        rng = np.random.default_rng(1)
        pos_floor = split_r2.eigenvalues[split_r2.negative_count]
        neg_floor = -split_r2.eigenvalues[split_r2.negative_count - 1]
        A = split_r2.operator
        for _ in range(20):
            u = random_field(split_r2.box, rng)
            up = lg.project(split_r2, u, "plus").values
            um = lg.project(split_r2, u, "minus").values
            assert up @ (A @ up) >= pos_floor * (up @ up) - 1e-9
            assert -(um @ (A @ um)) >= neg_floor * (um @ um) - 1e-9


class TestPersistedSplit:
    def test_loaded_split_is_bitwise_equal(self, split_r3, tmp_path):
        path = tmp_path / "split.npy"
        save_eigenpairs(split_r3, path)
        loaded = lg.spectral_split(split_r3.box, split_r3.operator,
                                   split_r3.gap, load_eigenpairs(path))
        assert loaded.eigenvalues.tobytes() == split_r3.eigenvalues.tobytes()
        assert loaded.eigenvectors.tobytes() == split_r3.eigenvectors.tobytes()
        assert loaded.eigenvectors.flags.f_contiguous
        assert loaded.negative_count == split_r3.negative_count
        assert loaded.intrusions == split_r3.intrusions
        assert sorted(p.name for p in tmp_path.iterdir()) == ["split.npy"]

    def test_eigenpairs_of_another_operator_rejected(self, split_r3):
        other = lg.assemble_operator(split_r3.box, lg.checkerboard_potential(3, 1.5))
        with pytest.raises(NumericalError, match="residual"):
            lg.spectral_split(split_r3.box, other, split_r3.gap,
                              (split_r3.eigenvalues, split_r3.eigenvectors))

    def test_eigenpairs_of_another_box_rejected(self, split_r2, split_r3):
        with pytest.raises(InvalidInputError, match="do not match"):
            lg.spectral_split(split_r3.box, split_r3.operator, split_r3.gap,
                              (split_r2.eigenvalues, split_r2.eigenvectors))


class TestSplitBlocks:
    def test_blocks_are_views_of_the_layout(self, split_r3, tmp_path):
        # a copied X^+ block at R = 7 would add about 46 MB
        path = tmp_path / "split.npy"
        save_eigenpairs(split_r3, path)
        loaded = lg.spectral_split(split_r3.box, split_r3.operator,
                                   split_r3.gap, load_eigenpairs(path))
        for split in (split_r3, loaded):
            n = split.negative_count
            blocks = ((split.minus_vectors, split.eigenvectors[:, :n]),
                      (split.plus_vectors, split.eigenvectors[:, n:]),
                      (split.minus_eigenvalues, split.eigenvalues[:n]),
                      (split.plus_eigenvalues, split.eigenvalues[n:]),
                      (split.abs_minus_eigenvalues, split.abs_eigenvalues[:n]))
            for block, expected in blocks:
                assert np.shares_memory(block, expected)
                np.testing.assert_array_equal(block, expected)
            assert split.minus_vectors.flags.f_contiguous
            assert split.plus_vectors.flags.f_contiguous
            assert np.all(split.minus_eigenvalues < 0)
            assert np.all(split.plus_eigenvalues > 0)

    def test_plus_norm_is_equivalent_norm(self, split_r2):
        u = lg.project(split_r2, random_field(split_r2.box, np.random.default_rng(4)),
                       "plus")
        norm = split_r2.plus_norm(split_r2.to_coords(u)[split_r2.plus])
        assert abs(norm - lg.split_norm(split_r2, u)) <= 1e-12 * norm


class TestProjectors:
    def test_completeness_and_orthogonality(self, split_r2):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = random_field(split_r2.box, rng)
            up = lg.project(split_r2, u, "plus")
            um = lg.project(split_r2, u, "minus")
            assert np.linalg.norm(up.values + um.values - u.values) <= 1e-10
            assert abs(lg.inner_l2(up, um)) <= 1e-10 * (1 + lg.inner_l2(u, u))
            assert np.linalg.norm(
                lg.project(split_r2, um, "plus").values) <= 1e-10

    def test_idempotence(self, split_r2):
        u = random_field(split_r2.box, np.random.default_rng(3))
        q1 = lg.project(split_r2, u, "plus")
        q2 = lg.project(split_r2, q1, "plus")
        assert np.linalg.norm(q2.values - q1.values) <= 1e-12

    def test_eigenvector_fixed(self, split_r2):
        i = split_r2.negative_count  # smallest positive eigenpair
        e = lg.LatticeField(split_r2.box, split_r2.eigenvectors[:, i])
        assert np.linalg.norm(lg.project(split_r2, e, "plus").values - e.values) < 1e-10
        assert np.linalg.norm(lg.project(split_r2, e, "minus").values) < 1e-10

    def test_l1_norm_stays_within_factor_two(self, potential, band_table,
                                             split_r2, split_r3, split_r4):
        # desk-scale proxy for l^p-boundedness of the spectral projector
        norms = [lg.projector_l1_norm(s, "minus")
                 for s in (split_r2, split_r3, split_r4)]
        assert max(norms) / min(norms) < 2.0


class TestSplitInner:
    def test_eigenvector_norm_is_abs_eigenvalue(self, split_r2):
        for i in (0, split_r2.negative_count, split_r2.size - 1):
            e = lg.LatticeField(split_r2.box, split_r2.eigenvectors[:, i])
            assert abs(lg.split_inner(split_r2, e, e)
                       - abs(split_r2.eigenvalues[i])) < 1e-10

    def test_pythagoras_and_quadratic_form(self, split_r2):
        rng = np.random.default_rng(4)
        A = split_r2.operator
        for _ in range(20):
            u = random_field(split_r2.box, rng)
            up = lg.project(split_r2, u, "plus")
            um = lg.project(split_r2, u, "minus")
            total = lg.split_inner(split_r2, u, u)
            assert abs(total - lg.split_inner(split_r2, up, up)
                       - lg.split_inner(split_r2, um, um)) <= 1e-10 * (1 + total)
            quad = u.values @ (A @ u.values)
            assert abs(quad - lg.split_inner(split_r2, up, up)
                       + lg.split_inner(split_r2, um, um)) <= 1e-10 * (1 + abs(quad))

    def test_symmetric_bilinear(self, split_r2):
        rng = np.random.default_rng(5)
        u, v = random_field(split_r2.box, rng), random_field(split_r2.box, rng)
        assert abs(lg.split_inner(split_r2, u, v)
                   - lg.split_inner(split_r2, v, u)) < 1e-12

    def test_gap_report_schema(self, split_r2):
        report = split_r2.gap_report()
        assert set(report) == {"sigma_minus", "sigma_plus", "intrusions"}
