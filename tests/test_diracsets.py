import numpy as np
import pytest

from superselect import diracsets
from superselect.diracsets import (
    COMMUTE_RTOL,
    cyclic_vector_for,
    has_simple_spectrum,
    interpolate_commuting,
    is_cyclic,
)
from superselect.errors import (
    DegenerateSpectrum,
    NotCommuting,
    NotHermitian,
    NotJointlyDiagonal,
    PostconditionFailure,
    ZeroVector,
)
from superselect.numkernel import random_hermitian, random_unitary
from superselect.opalgebra import commutant, generated_algebra, operator_set, span_equal


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=complex))


def pair_on_nodes(rng, alpha):
    """Hermitian A with eigenvalues alpha and B = f(A) with values uniform in [-5, 5]."""
    u = random_unitary(rng, len(alpha))
    a = (u * alpha) @ u.conj().T
    b = (u * rng.uniform(-5, 5, len(alpha))) @ u.conj().T
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def criterion_3_pairs():
    """The 100 interpolation draws of acceptance criterion 3 (seed 33), in order."""
    rng = np.random.default_rng(33)
    pairs = []
    while len(pairs) < 100:
        n = int(rng.integers(2, 11))
        alpha = np.sort(rng.uniform(-3, 3, n))
        if np.min(np.diff(alpha)) >= 1e-3:
            pairs.append(pair_on_nodes(rng, alpha))
    return pairs


class TestSimpleSpectrum:
    def test_distinct_diagonal(self):
        simple, gap = has_simple_spectrum(diag(0, 1, 2))
        assert simple and abs(gap - 1.0) <= 1e-12

    def test_degenerate_diagonal(self):
        simple, gap = has_simple_spectrum(diag(1, 1, 2))
        assert not simple and gap <= 1e-12

    def test_generic_hermitian(self):
        a = random_hermitian(np.random.default_rng(5), 8)
        simple, _ = has_simple_spectrum(a)
        assert simple

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            has_simple_spectrum(np.array([[0, 1], [0, 0]]))


class TestOneEigendecomposition:
    @pytest.mark.parametrize("call", [lambda a: interpolate_commuting(a, a @ a),
                                      cyclic_vector_for],
                             ids=["interpolate_commuting", "cyclic_vector_for"])
    def test_simplicity_read_from_held_eigenvalues(self, call, monkeypatch):
        calls, original = [], diracsets.hermitian_eig
        monkeypatch.setattr(diracsets, "hermitian_eig",
                            lambda a: calls.append(a) or original(a))
        call(diag(0, 1, 3))
        assert len(calls) == 1


class TestInterpolateCommuting:
    def test_quadratic_through_three_points(self):
        # Lagrange by hand through (0,1), (1,2), (2,5): p(x) = x^2 + 1
        p = interpolate_commuting(diag(0, 1, 2), diag(1, 2, 5))
        assert np.allclose(p.coefficients, [1.0, 0.0, 1.0], atol=1e-12)

    def test_identity_polynomial(self):
        p = interpolate_commuting(diag(0, 1, 2), diag(0, 1, 2))
        assert np.allclose(p.coefficients, [0.0, 1.0], atol=1e-12)

    def test_constant_polynomial(self):
        p = interpolate_commuting(diag(0, 1, 2), np.eye(3))
        assert p.coefficients.shape == (1,)
        assert abs(p.coefficients[0] - 1.0) <= 1e-12

    def test_interpolation_property(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            u = random_unitary(rng, n)
            alpha = np.sort(rng.uniform(-3, 3, n))
            if np.min(np.diff(alpha)) < 1e-3:
                continue
            beta = rng.uniform(-5, 5, n)
            a = (u * alpha) @ u.conj().T
            b = (u * beta) @ u.conj().T
            a, b = 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)
            p = interpolate_commuting(a, b)
            assert p.degree <= n - 1
            err = np.linalg.norm(p.of_matrix(a) - b)
            assert err <= 1e-8 * np.linalg.norm(b)

    def test_every_draw_meets_the_check_at_n_10(self):
        # the bound the module docstring states: on this recipe all 20 draws
        # meet 1e-8 up to n = 10, and one misses at n = 11
        n, rng = 10, np.random.default_rng(1)
        for _ in range(20):
            alpha = np.sort(rng.uniform(-3, 3, n))
            beta = rng.standard_normal(n)
            u = random_unitary(rng, n)
            a = (u * alpha) @ u.conj().T
            b = (u * beta) @ u.conj().T
            a, b = 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)
            p = interpolate_commuting(a, b)
            assert np.linalg.norm(p.of_matrix(a) - b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scale_of_a_does_not_matter(self, scale):
        # p(x) interpolates (alpha, beta) iff p(x / scale) interpolates
        # (scale * alpha, beta): neither the simplicity verdict nor the
        # trimmed degree may depend on the units of A
        for a, b in criterion_3_pairs():
            p = interpolate_commuting(scale * a, b)
            assert np.linalg.norm(p.of_matrix(scale * a) - b) <= 1e-8 * np.linalg.norm(b)

    def test_miss_at_n_24_raises(self):
        # the monomial coefficients of 24 nodes spread over [-3, 3] are too
        # ill-conditioned for p(A) to reproduce B at 1e-8
        rng = np.random.default_rng(0)
        a, b = pair_on_nodes(rng, np.sort(rng.uniform(-3, 3, 24)))
        with pytest.raises(PostconditionFailure, match=r"misses B by .* at n = 24"):
            interpolate_commuting(a, b)

    def test_rejects_non_commuting(self):
        with pytest.raises(NotCommuting):
            interpolate_commuting(diag(0, 1), np.array([[0, 1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize("factor, raises", [(10.0, True), (0.1, False)])
    def test_commutator_gate_at_commute_rtol(self, factor, raises):
        # B = f(A) + t X with X Hermitian and off-diagonal in A's eigenbasis:
        # ||[A, B]|| = t ||[A, X]||, so t sets the relative commutator
        a = diag(0.0, 1.0, 2.5)
        x = np.array([[0, 1, 0], [1, 0, 1j], [0, -1j, 0]], dtype=complex)
        f = diag(1.0, -2.0, 3.0)
        unit = np.linalg.norm(a @ x - x @ a) / (np.linalg.norm(a) * np.linalg.norm(f))
        b = f + (factor * COMMUTE_RTOL / unit) * x
        rel = np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert rel == pytest.approx(factor * COMMUTE_RTOL, rel=1e-6)
        if raises:
            with pytest.raises(NotCommuting):
                interpolate_commuting(a, b)
        else:
            p = interpolate_commuting(a, b)
            assert np.linalg.norm(p.of_matrix(a) - b) <= 1e-8 * np.linalg.norm(b)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            interpolate_commuting(diag(1, 1, 2), diag(1, 2, 3))

    def test_near_degenerate_off_diagonal_detected(self):
        # tiny gap lets a large off-diagonal block slip past the commutator
        # gate; the joint-diagonalization check must catch it
        gap = 1e-7
        a = diag(0.0, gap, 1.0)
        b = np.array([[1e4, 1e-2, 0.0], [1e-2, 1e4, 0.0], [0.0, 0.0, 2e4]],
                     dtype=complex)
        comm = np.linalg.norm(a @ b - b @ a)
        assert comm <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)  # gate passes
        with pytest.raises(NotJointlyDiagonal):
            interpolate_commuting(a, b)


class TestCyclicVectors:
    def test_explicit_construction(self):
        g = cyclic_vector_for(diag(0, 1, 2))
        assert np.allclose(np.abs(g), np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_degenerate_has_no_cyclic_vector(self):
        with pytest.raises(DegenerateSpectrum):
            cyclic_vector_for(diag(1, 1, 2))

    def test_two_dimensional_case(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        g = cyclic_vector_for(a)
        _, v = np.linalg.eigh(a)
        expect = (v[:, 0] + v[:, 1])
        expect /= np.linalg.norm(expect)
        assert abs(abs(g @ expect.conj()) - 1.0) <= 1e-12

    def test_is_cyclic_on_diagonal_algebra(self, seed):
        alg = generated_algebra(operator_set([diag(1, 2, 3)]), seed)
        assert not is_cyclic([1.0, 0.0, 0.0], alg)
        assert is_cyclic(np.full(3, 1 / np.sqrt(3)), alg)

    def test_full_algebra_any_vector_cyclic(self, seed):
        full = commutant(operator_set([np.eye(3)]), seed)
        assert is_cyclic([0.0, 0.0, 1.0], full)

    def test_zero_vector_rejected(self, seed):
        full = commutant(operator_set([np.eye(2)]), seed)
        with pytest.raises(ZeroVector):
            is_cyclic(np.zeros(2), full)

    def test_cyclic_iff_simple_with_planted_degeneracies(self, seed):
        rng = np.random.default_rng(19)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            vals = np.sort(rng.uniform(-2, 2, n))
            while np.min(np.diff(vals)) < 1e-3:
                vals = np.sort(rng.uniform(-2, 2, n))
            degenerate = trial % 2 == 1
            if degenerate:
                vals[1] = vals[0]
            u = random_unitary(rng, n)
            a = (u * vals) @ u.conj().T
            a = 0.5 * (a + a.conj().T)
            simple, _ = has_simple_spectrum(a)
            assert simple == (not degenerate)
            if degenerate:
                with pytest.raises(DegenerateSpectrum):
                    cyclic_vector_for(a)
            else:
                g = cyclic_vector_for(a)
                assert is_cyclic(g, generated_algebra(operator_set([a]), seed))


class TestAlgebraStructure:
    def test_generated_dim_counts_distinct_eigenvalues(self, seed):
        rng = np.random.default_rng(23)
        for vals in ([1, 2, 3], [1, 1, 2], [2, 2, 2], [0, 1, 1, 3]):
            u = random_unitary(rng, len(vals))
            a = (u * np.asarray(vals, dtype=float)) @ u.conj().T
            a = 0.5 * (a + a.conj().T)
            alg = generated_algebra(operator_set([a]), seed)
            assert alg.algebra_dim == len(set(vals))

    def test_maximality_of_simple_spectrum_generator(self, seed):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_hermitian(rng, n)
            alg = generated_algebra(operator_set([a]), seed)
            cp = commutant(operator_set(list(alg.basis)), seed)
            assert span_equal(alg, cp)  # A = A'
