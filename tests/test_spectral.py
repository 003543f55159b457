import numpy as np
import pytest
import scipy.linalg as sla

import latticegap as lg
from latticegap.errors import (InvalidInputError, NoSpectralGapError,
                               NumericalError, ZeroEigenvalueError)
from latticegap.spectral import (parity_sectors, read_eigenpairs,
                                 reflection_axes, write_split)

from conftest import eigenvector_matrix, random_field
from oracle_bloch import bloch_matrix as oracle_bloch_matrix
from oracle_lattice import inner_l2
from oracle_split import (dense_lift, gap_report, projector_l1_norm,
                          sector_eigenpairs)


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

    def test_zero_period_rejected(self):
        with pytest.raises(InvalidInputError, match="period entries must be >= 1"):
            lg.PeriodicPotential((0, 2), np.zeros((0, 2)))

    def test_non_finite_cell_rejected(self):
        with pytest.raises(InvalidInputError, match="must be finite"):
            lg.PeriodicPotential((2, 2), np.array([[0.0, np.nan], [1.0, 2.0]]))


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

    def test_positive_spectrum_does_not_straddle_zero(self):
        # spectrum [5, 4N + 5] lies above 0, so no band touches it
        with pytest.raises(NoSpectralGapError, match="does not straddle 0"):
            lg.bloch_band_edges(lg.constant_potential(3, 5.0))

    def test_grid_resolution_enforced(self, potential):
        with pytest.raises(InvalidInputError):
            lg.bloch_band_edges(potential, grid=4)

    def test_grid_bounded_before_the_stack(self, potential, monkeypatch):
        # 100^3 x 8^2 entries would be a 1 GiB complex stack
        def indices(*args, **kwargs):
            raise AssertionError("k-grid built before the bound check")

        monkeypatch.setattr(np, "indices", indices)
        with pytest.raises(InvalidInputError, match="Bloch stack bound"):
            lg.bloch_band_edges(potential, grid=100)

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
        assert abs(split_r4.eigenvalues).min() >= 1.0 - 1e-9

    def test_split_index_near_half(self, split_r4):
        assert abs(split_r4.negative_count - split_r4.size / 2) < 0.05 * split_r4.size

    def test_eigen_residuals(self, split_r4):
        A, E = split_r4.operator, eigenvector_matrix(split_r4)
        for i in range(0, split_r4.size, 97):
            e = E[:, i]
            lam = split_r4.eigenvalues[i]
            res = np.linalg.norm(A @ e - lam * e)
            assert res <= 1e-9 * (1 + abs(lam))

    def test_orthonormal_eigenvectors(self, split_r2):
        E = eigenvector_matrix(split_r2)
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
        for make in (lg.spectral_split, lg.SpectralSplit):
            with pytest.raises(InvalidInputError):
                make(box, lg.assemble_operator(box, potential), (-1, 1))

    @pytest.mark.parametrize("gap", [(0.5, 1.0), (-1.0, -0.5), (float("nan"), 1.0)],
                             ids=["above", "below", "nan"])
    def test_gap_must_contain_zero(self, split_r2, gap):
        for make in (lg.spectral_split, lg.SpectralSplit):
            with pytest.raises(InvalidInputError, match="does not contain 0"):
                make(split_r2.box, split_r2.operator, gap)

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


def _sector_oracle_case(dimension, radius, potential):
    box = lg.BoxDomain(dimension, radius)
    operator = lg.assemble_operator(box, potential)
    return box, operator, lg.spectral_split(box, operator, (-0.1, 0.1))


def _assert_matches_dense_oracle(split, operator):
    """The sector split against one dense `eigh` of the whole operator."""
    values, vectors = sla.eigh(operator.toarray())
    assert np.max(np.abs(split.eigenvalues - values)) <= 1e-12
    n = split.negative_count
    assert n == int(np.sum(values < 0))
    # degenerate eigenspaces have other bases: compare the X^- projectors
    oracle_projector = vectors[:, :n] @ vectors[:, :n].T
    E = eigenvector_matrix(split)
    projector = E[:, :n] @ E[:, :n].T
    assert np.max(np.abs(projector - oracle_projector)) <= 1e-10
    assert np.max(np.abs(E.T @ E - np.eye(split.size))) <= 1e-12


def _assert_parity_definite(split, axes):
    """Every eigenvector is even or odd under each reflection in `axes`."""
    E = eigenvector_matrix(split)
    grid = E.reshape(split.box.shape + (split.size,))
    for axis in axes:
        mirrored = np.flip(grid, axis=axis).reshape(split.size, split.size)
        even = np.max(np.abs(mirrored - E), axis=0)
        odd = np.max(np.abs(mirrored + E), axis=0)
        assert np.all(np.minimum(even, odd) <= 1e-12)


class TestSectorSplit:
    """The split diagonalizes one reflection-parity sector at a time; a
    dense `eigh` of the whole operator is its oracle."""

    # every (N, R) with N, R in 1..4 that the dense budget admits; the
    # 2,401-site N = 4, R = 3 box takes 5 s and runs for one potential only
    SHAPES = [(n, r) for n in range(1, 5) for r in range(1, 5)
              if (2 * r + 1) ** n <= lg.spectral.DENSE_EIG_BUDGET]
    SMALL_SHAPES = [(n, r) for n, r in SHAPES if (2 * r + 1) ** n <= 1000]

    @pytest.mark.parametrize(
        "dimension,radius,amplitude,shift",
        [(n, r, 1.0, None) for n, r in SHAPES]
        + [(n, r, 0.5, 0.25) for n, r in SMALL_SHAPES])
    def test_checkerboard_against_dense_eigh(self, dimension, radius,
                                             amplitude, shift):
        # shift 0.25 above -2N keeps every |lambda| >= 0.25
        if shift is not None:
            shift = -2.0 * dimension + shift
        box, operator, split = _sector_oracle_case(
            dimension, radius,
            lg.checkerboard_potential(dimension, amplitude, shift))
        assert reflection_axes(box, operator) == tuple(range(dimension))
        _assert_matches_dense_oracle(split, operator)
        _assert_parity_definite(split, range(dimension))

    @pytest.mark.parametrize("dimension,radius", SMALL_SHAPES)
    def test_constant_potential_against_dense_eigh(self, dimension, radius):
        # -Delta on the box has no eigenvalue within 1e-3 of 2N - 0.3 here
        box, operator, split = _sector_oracle_case(
            dimension, radius, lg.constant_potential(dimension, 0.3 - 2 * dimension))
        assert abs(split.eigenvalues).min() > 1e-3
        _assert_matches_dense_oracle(split, operator)
        _assert_parity_definite(split, range(dimension))

    def test_no_symmetric_axis_is_one_dense_eigh(self):
        rng = np.random.default_rng(11)
        potential = lg.PeriodicPotential((3, 3), rng.uniform(-5.0, 1.0, (3, 3)))
        box = lg.BoxDomain(2, 4)
        operator = lg.assemble_operator(box, potential)
        assert reflection_axes(box, operator) == ()
        assert len(parity_sectors(box, ())) == 1
        split = lg.spectral_split(box, operator, (-0.1, 0.1))
        values, vectors = sla.eigh(operator.toarray(), driver="evd")
        assert split.eigenvalues.tobytes() == values.tobytes()
        assert eigenvector_matrix(split).tobytes() == vectors.tobytes()

    def test_partly_symmetric_cell(self):
        # period 2 is even under x -> -x, period 3 is not
        rng = np.random.default_rng(12)
        potential = lg.PeriodicPotential((2, 3, 2), rng.uniform(-7.0, -5.0, (2, 3, 2)))
        box = lg.BoxDomain(3, 3)
        operator = lg.assemble_operator(box, potential)
        assert reflection_axes(box, operator) == (0, 2)
        sectors = parity_sectors(box, (0, 2))
        assert [s.size for s in sectors] == [112, 84, 84, 63]
        split = lg.spectral_split(box, operator, (-0.1, 0.1))
        _assert_matches_dense_oracle(split, operator)
        _assert_parity_definite(split, (0, 2))

    def test_sector_bases_are_orthonormal_and_complete(self):
        box = lg.BoxDomain(3, 2)
        q = np.hstack([s.basis(box.site_count).toarray()
                       for s in parity_sectors(box, (0, 1, 2))])
        np.testing.assert_allclose(q.T @ q, np.eye(box.site_count), atol=1e-15)

    def test_reruns_are_bytewise_identical(self, potential, band_table):
        box = lg.BoxDomain(3, 3)
        operator = lg.assemble_operator(box, potential)
        first = lg.spectral_split(box, operator, band_table.gap)
        second = lg.spectral_split(box, operator, band_table.gap)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert (eigenvector_matrix(first).tobytes()
                == eigenvector_matrix(second).tobytes())


class TestDriverCrossCheck:
    """The split diagonalizes its blocks with divide-and-conquer `evd`; a
    split built from MRRR (`evr`) eigenpairs of the same blocks is its
    oracle.  Inside degenerate eigenspaces the two bases differ, so the
    comparison is on eigenvalues and on the spectral projectors."""

    @pytest.mark.parametrize("radius", [3, 4])
    @pytest.mark.parametrize("potential", [
        lg.checkerboard_potential(3, 1.0), lg.checkerboard_potential(3, 0.5),
        lg.constant_potential(3, 0.3 - 6.0)],
        ids=["checkerboard-1", "checkerboard-0.5", "constant"])
    def test_matches_evr_split(self, radius, potential):
        box = lg.BoxDomain(3, radius)
        operator = lg.assemble_operator(box, potential)
        split = lg.spectral_split(box, operator, (-0.1, 0.1))
        oracle = lg.spectral_split(box, operator, (-0.1, 0.1),
                                   sector_eigenpairs(box, operator, "evr"))
        assert oracle.negative_count == split.negative_count
        assert np.all(np.abs(split.eigenvalues - oracle.eigenvalues)
                      <= 1e-12 * (1.0 + np.abs(oracle.eigenvalues)))
        v = np.random.default_rng(radius).standard_normal((box.site_count, 2))
        for part in ("minus", "plus"):
            got = split.values_of(split.coords_of(v, part), part)
            want = oracle.values_of(oracle.coords_of(v, part), part)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_sector_eigenvectors_orthonormal(self, split_r6):
        # MRRR gave 2.2e-13 here: the spectrum has 19-fold clusters
        for _, _, vectors, _ in split_r6._blocks["all"]:
            gram = vectors.T @ vectors
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-13


def _saved_and_loaded(split, tmp_path):
    path = tmp_path / "split.npy"
    write_split(split.box, split.operator, path)
    return path, list(read_eigenpairs(path))


class TestPersistedSplit:
    def test_loaded_split_is_bitwise_equal(self, split_r3, tmp_path):
        eigenpairs = _saved_and_loaded(split_r3, tmp_path)[1]
        loaded = lg.spectral_split(split_r3.box, split_r3.operator,
                                   split_r3.gap, eigenpairs)
        assert loaded.eigenvalues.tobytes() == split_r3.eigenvalues.tobytes()
        assert (eigenvector_matrix(loaded).tobytes()
                == eigenvector_matrix(split_r3).tobytes())
        assert loaded.negative_count == split_r3.negative_count
        assert loaded.intrusions == split_r3.intrusions
        assert sorted(p.name for p in tmp_path.iterdir()) == ["split.npy"]

    def test_file_holds_one_pair_per_sector(self, split_r3, tmp_path):
        # about n^2 / 8 doubles instead of n^2
        path, eigenpairs = _saved_and_loaded(split_r3, tmp_path)
        sizes = [s.size for s in parity_sectors(split_r3.box, (0, 1, 2))]
        assert [v.shape for _, v in eigenpairs] == [(m, m) for m in sizes]
        assert all(v.flags.f_contiguous for _, v in eigenpairs)
        assert path.stat().st_size < 8 * (sum(m * m for m in sizes) + 2 * split_r3.size)

    def test_eigenpairs_of_another_operator_rejected(self, split_r3, tmp_path):
        other = lg.assemble_operator(split_r3.box, lg.checkerboard_potential(3, 1.5))
        with pytest.raises(NumericalError, match="residual"):
            lg.spectral_split(split_r3.box, other, split_r3.gap,
                              _saved_and_loaded(split_r3, tmp_path)[1])

    def test_eigenpairs_of_another_box_rejected(self, split_r2, split_r3, tmp_path):
        with pytest.raises(InvalidInputError, match="do not match"):
            lg.spectral_split(split_r3.box, split_r3.operator, split_r3.gap,
                              _saved_and_loaded(split_r2, tmp_path)[1])

    def test_dense_eigenpairs_rejected(self, split_r2):
        # the layout before the sector blocks: eigenvalues and one n x n matrix
        with pytest.raises(InvalidInputError, match="do not match"):
            lg.spectral_split(split_r2.box, split_r2.operator, split_r2.gap,
                              (split_r2.eigenvalues, eigenvector_matrix(split_r2)))

    def test_unsorted_sector_rejected(self, split_r2, tmp_path):
        eigenpairs = _saved_and_loaded(split_r2, tmp_path)[1]
        values, vectors = eigenpairs[0]
        eigenpairs[0] = (values[::-1], vectors[:, ::-1])
        with pytest.raises(InvalidInputError, match="ascending"):
            lg.spectral_split(split_r2.box, split_r2.operator, split_r2.gap,
                              eigenpairs)

    @pytest.mark.parametrize("record", [0, 1], ids=["eigenvalue", "eigenvector"])
    def test_non_finite_eigenpairs_rejected(self, split_r2, tmp_path, record):
        eigenpairs = _saved_and_loaded(split_r2, tmp_path)[1]
        eigenpairs[0][record].flat[0] = np.nan
        with pytest.raises(InvalidInputError, match="not finite"):
            lg.spectral_split(split_r2.box, split_r2.operator, split_r2.gap,
                              eigenpairs)

    def test_nan_residual_rejected(self, split_r2, tmp_path):
        # finite entries whose residual overflows to inf - inf = NaN
        eigenpairs = _saved_and_loaded(split_r2, tmp_path)[1]
        values, vectors = eigenpairs[0]
        assert values[0] < -2.0
        vectors[:, 0] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="residual"):
            lg.spectral_split(split_r2.box, split_r2.operator, split_r2.gap,
                              eigenpairs)


class TestSplitBlocks:
    def test_blocks_are_views_of_the_layout(self, split_r3, tmp_path):
        # a copied X^+ block would double the memory of the eigenvectors
        loaded = lg.spectral_split(split_r3.box, split_r3.operator, split_r3.gap,
                                   _saved_and_loaded(split_r3, tmp_path)[1])
        for split in (split_r3, loaded):
            # each sector's X^- / X^+ columns are views of its eigenvectors
            sectors = split._blocks["all"]
            for part in ("minus", "plus"):
                for sector, _, vectors, _ in split._blocks[part]:
                    whole = next(v for s, _, v, _ in sectors if s is sector)
                    assert np.shares_memory(vectors, whole)
                    assert vectors.flags.f_contiguous
            assert np.all(split.eigenvalues[split.minus] < 0)
            assert np.all(split.eigenvalues[split.plus] > 0)

    def test_plus_norm_is_equivalent_norm(self, split_r2):
        u = lg.project(split_r2, random_field(split_r2.box, np.random.default_rng(4)),
                       "plus")
        norm = lg.solver._plus_norm(split_r2, split_r2.coords_of(u.values)[split_r2.plus])
        assert abs(norm - lg.split_norm(split_r2, u)) <= 1e-12 * norm


class TestProjectors:
    def test_completeness_and_orthogonality(self, split_r2):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = random_field(split_r2.box, rng)
            up = lg.project(split_r2, u, "plus")
            um = lg.project(split_r2, u, "minus")
            assert np.linalg.norm(up.values + um.values - u.values) <= 1e-10
            assert abs(inner_l2(up, um)) <= 1e-10 * (1 + inner_l2(u, u))
            assert np.linalg.norm(
                lg.project(split_r2, um, "plus").values) <= 1e-10

    def test_idempotence(self, split_r2):
        u = random_field(split_r2.box, np.random.default_rng(3))
        q1 = lg.project(split_r2, u, "plus")
        q2 = lg.project(split_r2, q1, "plus")
        assert np.linalg.norm(q2.values - q1.values) <= 1e-12

    def test_eigenvector_fixed(self, split_r2):
        i = split_r2.negative_count  # smallest positive eigenpair
        e = lg.LatticeField(split_r2.box, eigenvector_matrix(split_r2)[:, i])
        assert np.linalg.norm(lg.project(split_r2, e, "plus").values - e.values) < 1e-10
        assert np.linalg.norm(lg.project(split_r2, e, "minus").values) < 1e-10

    def test_unknown_sign_refused(self, split_r2):
        u = random_field(split_r2.box, np.random.default_rng(3))
        with pytest.raises(InvalidInputError, match="sign must be"):
            lg.project(split_r2, u, "both")

    def test_l1_norm_stays_within_factor_two(self, potential, band_table,
                                             split_r2, split_r3, split_r4):
        # desk-scale proxy for l^p-boundedness of the spectral projector
        norms = [projector_l1_norm(s, "minus")
                 for s in (split_r2, split_r3, split_r4)]
        assert max(norms) / min(norms) < 2.0


class TestSplitInner:
    def test_eigenvector_norm_is_abs_eigenvalue(self, split_r2):
        for i in (0, split_r2.negative_count, split_r2.size - 1):
            e = lg.LatticeField(split_r2.box, eigenvector_matrix(split_r2)[:, i])
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

    def test_norms_map_the_field_once(self, monkeypatch, split_r2):
        # (|lambda| c) c has the bits of (|lambda| cu) cv when cu and cv
        # are the same bytes, so one map gives the two-map values exactly
        u = lg.project(split_r2, random_field(split_r2.box, np.random.default_rng(8)),
                       "plus")
        norm2 = lg.split_inner(split_r2, u, u)
        want_norm = float(np.sqrt(max(norm2, 0.0)))
        want_rho = norm2 - lg.weighted_mass(u, 0.01, lg.EUCLIDEAN_WEIGHT)
        coords_of, calls = lg.SpectralSplit.coords_of, []

        def counted(split, values, part="all"):
            calls.append(part)
            return coords_of(split, values, part)

        monkeypatch.setattr(lg.SpectralSplit, "coords_of", counted)
        assert lg.split_norm(split_r2, u) == want_norm
        assert calls == ["all"]
        assert lg.rho_norm_plus(split_r2, u, 0.01) == want_rho
        assert calls == ["all", "all"]

    def test_symmetric_bilinear(self, split_r2):
        rng = np.random.default_rng(5)
        u, v = random_field(split_r2.box, rng), random_field(split_r2.box, rng)
        assert abs(lg.split_inner(split_r2, u, v)
                   - lg.split_inner(split_r2, v, u)) < 1e-12

    def test_gap_report_schema(self, split_r2):
        report = gap_report(split_r2)
        assert set(report) == {"sigma_minus", "sigma_plus", "intrusions"}


def _blocked_product_cases():
    cases = [pytest.param(3, r, lg.checkerboard_potential(3, a), id=f"checkerboard-{a}-R{r}")
             for a in (1.0, 0.5) for r in range(5)]
    cases.append(pytest.param(3, 2, lg.constant_potential(3, 0.3 - 6.0), id="constant"))
    return cases


def _products(split, coords, values):
    """Every product of the split, with coordinates and site values as
    given: all, X^- and X^+ coordinates to site values and back."""
    n = split.negative_count
    return [split.values_of(coords), split.coords_of(values),
            split.values_of(coords[:n], "minus"), split.coords_of(values, "minus"),
            split.values_of(coords[n:], "plus"), split.coords_of(values, "plus")]


def _dense_products(vectors, n, coords, values):
    """The same products with a dense eigenvector matrix."""
    return [vectors @ coords, vectors.T @ values,
            vectors[:, :n] @ coords[:n], vectors[:, :n].T @ values,
            vectors[:, n:] @ coords[n:], vectors[:, n:].T @ values]


class TestBlockedProducts:
    """`values_of` and `coords_of` multiply sector by sector; the dense lift
    Q_s V_s of `oracle_split` is their oracle, for 1-D and 2-D inputs."""

    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    @pytest.mark.parametrize("dimension,radius,potential", _blocked_product_cases())
    def test_against_dense_lift(self, dimension, radius, potential, columns):
        box = lg.BoxDomain(dimension, radius)
        operator = lg.assemble_operator(box, potential)
        split = lg.spectral_split(box, operator, (-0.1, 0.1))
        values, vectors = dense_lift(box, operator)
        assert split.eigenvalues.tobytes() == values.tobytes()
        rng = np.random.default_rng(radius)
        shape = (box.site_count,) if columns is None else (box.site_count, columns)
        coords, sites = rng.standard_normal(shape), rng.standard_normal(shape)
        for got, want in zip(_products(split, coords, sites),
                             _dense_products(vectors, split.negative_count,
                                             coords, sites)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    @pytest.mark.parametrize("part", ["all", "minus", "plus"])
    def test_coords_of_matches_forward_sector_order(self, split_r3, part, columns):
        # coords_of walks the sectors in reverse; each sector writes its own
        # coordinates, so the bytes are those of the forward walk
        split = split_r3
        blocks = split._blocks[part]
        assert len(blocks) > 1
        count = {"all": split.size, "minus": split.negative_count,
                 "plus": split.size - split.negative_count}[part]
        shape = (split.size,) if columns is None else (split.size, columns)
        values = np.random.default_rng(17).standard_normal(shape)
        w = split._basis_t @ values
        want = np.empty((count,) + shape[1:])
        for _, rows, vectors, index in blocks:
            want[index] = vectors.T @ w[rows]
        assert split.coords_of(values, part).tobytes() == want.tobytes()

    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    def test_no_symmetric_axis_is_the_plain_eigh_product(self, columns):
        # a period-3 cell: one block with Q = I, bytes of the plain products
        rng = np.random.default_rng(13)
        potential = lg.PeriodicPotential((3, 3, 3), rng.uniform(-1.0, 1.0, (3, 3, 3)) - 6.0)
        box = lg.BoxDomain(3, 2)
        operator = lg.assemble_operator(box, potential)
        assert reflection_axes(box, operator) == ()
        split = lg.spectral_split(box, operator, (-0.1, 0.1))
        values, vectors = sla.eigh(operator.toarray(), driver="evd")
        assert split.eigenvalues.tobytes() == values.tobytes()
        shape = (box.site_count,) if columns is None else (box.site_count, columns)
        coords, sites = rng.standard_normal(shape), rng.standard_normal(shape)
        for got, want in zip(_products(split, coords, sites),
                             _dense_products(vectors, split.negative_count,
                                             coords, sites)):
            assert got.tobytes() == want.tobytes()
