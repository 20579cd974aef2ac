import numpy as np
import pytest

from superselect.errors import DimensionMismatch, NotHermitian
from superselect.numkernel import (
    ToleranceConfig,
    as_complex_matrix,
    cluster_eigenvalues,
    hermitian_eig,
    hs_inner,
    orthonormal_columns_extend,
    orthonormal_nullspace,
    random_hermitian,
)
from superselect.opalgebra import algebra_from_span, span_residual


class TestToleranceConfig:
    def test_defaults(self):
        t = ToleranceConfig()
        assert t.rank_tol == 1e-10 and t.cluster_tol == 1e-8 and t.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"rank_tol": 0.0}, {"rank_tol": 1.0}, {"cluster_tol": -0.1},
        {"cluster_tol": 2.0}, {"seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)

    def test_rng_reproducible(self):
        t = ToleranceConfig(seed=5)
        assert t.rng(3).integers(0, 1 << 30) == t.rng(3).integers(0, 1 << 30)
        assert t.rng(3).integers(0, 1 << 30) != t.rng(4).integers(0, 1 << 30)


class TestComplexMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1, 1, 1])

    def test_already_diagonal(self):
        w, v = hermitian_eig(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        # characteristic polynomial x^2 - 1 by hand
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            a = random_hermitian(rng, n)
            w, v = hermitian_eig(a)
            err = np.linalg.norm(a - (v * w) @ v.conj().T)
            assert err <= 1e-10 * np.linalg.norm(a)
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10


class TestNullspace:
    def test_zero_matrix_full_space(self, tol):
        ns = orthonormal_nullspace(np.zeros((2, 2)), tol)
        assert ns.shape == (2, 2)

    def test_identity_empty(self, tol):
        assert orthonormal_nullspace(np.eye(3), tol).shape == (3, 0)

    def test_rank_one(self, tol):
        # hand row reduction: kernel of [[1,1],[1,1]] is span (1,-1)/sqrt(2)
        ns = orthonormal_nullspace(np.ones((2, 2)), tol)
        assert ns.shape == (2, 1)
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(np.abs(ns[:, 0] @ target), 1.0)

    def test_rank_nullity(self, tol):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            s = np.linalg.svd(m, compute_uv=False)
            rank = int(np.sum(s > tol.rank_tol * s[0]))
            assert orthonormal_nullspace(m, tol).shape[1] + rank == cols

    @pytest.mark.parametrize("rows, cols, rank", [(12, 5, 3), (6, 6, 4), (3, 7, 2)])
    def test_known_rank_tall_square_wide(self, tol, rows, cols, rank):
        rng = np.random.default_rng(rows * cols)
        left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        m = left @ right
        ns = orthonormal_nullspace(m, tol)
        assert ns.shape == (cols, cols - rank)
        assert np.max(np.abs(ns.conj().T @ ns - np.eye(cols - rank))) <= 1e-12
        smax = np.linalg.norm(m, 2)
        assert np.max(np.linalg.norm(m @ ns, axis=0)) <= tol.rank_tol * smax


class TestGramSchmidtHS:
    """Hilbert-Schmidt orthonormalization of a spanning set, by ``algebra_from_span``."""

    def test_dependent_pair_collapses(self, tol):
        out = algebra_from_span([np.eye(3), 2.0 * np.eye(3)], tol).basis
        assert len(out) == 1
        assert abs(abs(hs_inner(out[0], np.eye(3) / np.sqrt(3))) - 1.0) <= 1e-10

    def test_orthogonal_pair_kept(self, tol):
        out = algebra_from_span([np.eye(2), np.diag([1.0, -1.0])], tol).basis
        assert len(out) == 2
        assert abs(hs_inner(out[0], out[1])) <= 1e-10

    def test_generic_four_matrices_span_everything(self, tol):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)]
        out = algebra_from_span(mats, tol).basis
        # independent rank oracle on the stacked vectorizations
        rank = np.linalg.matrix_rank(np.stack([m.ravel() for m in mats]), tol=1e-10)
        assert len(out) == rank == 4
        gram = np.array([[hs_inner(a, b) for b in out] for a in out])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_output_dim_matches_numerical_rank(self, tol):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 7))
            mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(k)]
            if k > 2 and rng.random() < 0.5:
                mats[-1] = mats[0] + mats[1]  # plant a dependency
            out = algebra_from_span(mats, tol).basis
            rank = np.linalg.matrix_rank(np.stack([m.ravel() for m in mats]), tol=1e-8)
            assert len(out) == rank
            assert max(span_residual(out, m) / np.linalg.norm(m) for m in mats) <= 1e-10

    def test_mixed_dimensions_rejected(self, tol):
        with pytest.raises(DimensionMismatch):
            algebra_from_span([np.eye(2), np.eye(3)], tol)



class TestColumnsExtend:
    def test_near_cutoff_directions_stay_orthogonal(self):
        # new directions at O(1) and at 1e-9 beside components along q: the
        # small one's left singular vector carries roundoff ~1e-16 / 1e-9
        # along q, which the kept block must not pass on
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16)))
        q, big, small = basis[:, :12], basis[:, 12:14], basis[:, 14:]
        coeffs = rng.standard_normal((16, 30))
        cand = q @ coeffs[:12] + big @ coeffs[12:14] + 1e-9 * small @ coeffs[14:]
        out = orthonormal_columns_extend(q, cand, 1e-10 * np.max(np.linalg.norm(cand, axis=0)))
        assert out.shape == (40, 16)
        assert np.max(np.abs(out.conj().T @ out - np.eye(16))) <= 1e-12
        assert np.array_equal(out[:, :12], q)

class TestClustering:
    def test_distinct_values_separate(self):
        groups = cluster_eigenvalues(np.array([0.0, 1.0, 2.0]), 1e-8)
        assert [list(g) for g in groups] == [[0], [1], [2]]

    def test_roundoff_diameter_is_one_cluster(self):
        w = 1.0 + np.array([0.0, 1e-16, 3e-16])
        assert len(cluster_eigenvalues(w, 1e-8)) == 1

    def test_near_degenerate_pair_merges(self):
        w = np.array([0.0, 1e-12, 1.0])
        groups = cluster_eigenvalues(w, 1e-8)
        assert [list(g) for g in groups] == [[0, 1], [2]]
