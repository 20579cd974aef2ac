import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_commutant, planted_block_algebra, sample_pattern
from superselect import opalgebra
from superselect.errors import (
    DegenerateGenericElement,
    DimensionMismatch,
    PostconditionFailure,
)
from superselect.numkernel import ToleranceConfig, random_hermitian, random_unitary
from superselect.opalgebra import (
    _generic_split,
    _word_closure_dim,
    algebra_from_span,
    center,
    check_dirac,
    commutant,
    generated_algebra,
    is_abelian,
    operator_set,
    span_equal,
    span_residual,
    star_completion,
)
from superselect.sectors import central_decomposition

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestOperatorSet:
    def test_requires_shared_dimension(self):
        with pytest.raises(DimensionMismatch):
            operator_set([np.eye(2), np.eye(3)])

    def test_requires_non_empty(self):
        with pytest.raises(ValueError):
            operator_set([])

    def test_self_adjoint_detection(self):
        assert operator_set([SX, SZ]).self_adjoint_closed
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        s = operator_set([raising])
        assert not s.self_adjoint_closed
        assert len(star_completion(s)) == 2
        # a set spanning its adjoints without being elementwise Hermitian
        s2 = operator_set([raising, raising.conj().T])
        assert s2.self_adjoint_closed

    def test_star_closure_at_mixed_scales(self, tol):
        # {1e6 I, 1e-6 E_01} lacks E_10 however small the raising member is;
        # at unit scale the set is not *-closed and generates all of M_2
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        s = operator_set([1e6 * np.eye(2), 1e-6 * raising], tol=tol)
        assert s.self_adjoint_closed is False
        assert len(star_completion(s)) == 4
        assert generated_algebra(s, tol).algebra_dim == 4
        assert generated_algebra(operator_set([np.eye(2), raising], tol=tol), tol).algebra_dim == 4

    def test_zero_members_do_not_decide_star_closure(self, tol):
        zero = np.zeros((2, 2), dtype=complex)
        assert operator_set([zero], tol=tol).self_adjoint_closed
        assert operator_set([zero, SX], tol=tol).self_adjoint_closed
        assert not operator_set([zero, np.array([[0, 1], [0, 0]], dtype=complex)],
                                tol=tol).self_adjoint_closed


class TestCommutant:
    def test_identity_gives_full_algebra(self, tol):
        c = commutant(operator_set([np.eye(2)]), tol)
        assert c.algebra_dim == 4
        c.validate(tol)

    def test_pauli_generators_give_scalars(self, tol):
        c = commutant(operator_set([SX, SY, SZ]), tol)
        assert c.algebra_dim == 1
        assert span_residual(c.basis, np.eye(2) / np.sqrt(2)) <= 1e-10

    def test_block_diagonal_example(self, tol):
        # diag(1,1,2): commutes with M2 (+) M1, dimension 5
        c = commutant(operator_set([np.diag([1.0, 1.0, 2.0]).astype(complex)]), tol)
        assert c.algebra_dim == 5
        c.validate(tol)

    def test_against_brute_force(self, tol):
        rng = np.random.default_rng(21)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            mats = []
            for _ in range(k):
                if rng.random() < 0.5:
                    mats.append(random_hermitian(rng, n))
                else:
                    mats.append(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            if rng.random() < 0.4:  # plant some block structure
                d = np.diag(rng.integers(0, 3, size=n).astype(complex))
                mats.append(d)
            got = commutant(operator_set(mats), tol)
            oracle = brute_force_commutant(mats, tol.rank_tol)
            assert got.algebra_dim == oracle.shape[0], f"trial {trial}"
            assert span_equal(got, algebra_from_span(list(oracle), tol), tol)

    def test_all_zero_set_gives_full_algebra(self, tol):
        assert commutant(operator_set([np.zeros((3, 3))]), tol).algebra_dim == 9

    def test_mixed_scale_generators(self, tol):
        # rescaling a generator leaves the span, hence the commutant, unchanged;
        # the 1e-6 generator must not fall below the absolute nullspace cutoff
        for seed in range(5):
            gens, _ = planted_block_algebra(np.random.default_rng(seed), [(1, 2), (2, 3)])
            ref = commutant(operator_set(gens, tol=tol), tol)
            got = commutant(operator_set([1e6 * gens[0], 1e-6 * gens[1]], tol=tol), tol)
            assert got.algebra_dim == ref.algebra_dim == 5
            assert span_equal(got, ref, tol)
            assert central_decomposition(got, tol).multiset() \
                == central_decomposition(ref, tol).multiset()

    def test_inclusion_reversal(self, tol):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            small = [random_hermitian(rng, n)]
            big = small + [random_hermitian(rng, n)]
            c_small = commutant(operator_set(small), tol)
            c_big = commutant(operator_set(big), tol)
            worst = max(span_residual(c_small.basis, b) for b in c_big.basis)
            assert worst <= 1e-9


class TestGenericSplit:
    @pytest.fixture
    def members(self):
        rng = np.random.default_rng(13)
        return np.stack([random_hermitian(rng, 5) for _ in range(3)])

    def test_returns_first_accepted_draw(self, members, tol):
        seen = []
        salts = iter([(7, 0), (7, 1), (7, 2)])
        w, v, groups = _generic_split(members, tol, salts,
                                      lambda g: seen.append(g) or len(seen) == 2)
        assert len(seen) == 2 and next(salts) == (7, 2)  # stopped at the first accepted
        w1, v1, groups1 = _generic_split(members, tol, [(7, 1)], lambda g: True)
        assert np.array_equal(w, w1) and np.array_equal(v, v1)
        assert [g.tolist() for g in groups] == [g.tolist() for g in groups1]

    def test_exhausted_salts_raise_naming_the_last(self, members, tol):
        with pytest.raises(DegenerateGenericElement, match=r"salt \(9, 2\)"):
            _generic_split(members, tol, ((9, a) for a in range(3)), lambda g: False)


class TestGeneratedAlgebra:
    def test_single_reflection(self, tol):
        assert generated_algebra(operator_set([SZ]), tol).algebra_dim == 2

    def test_two_anticommuting_generators_fill_m2(self, tol):
        assert generated_algebra(operator_set([SX, SZ]), tol).algebra_dim == 4

    def test_identity_alone(self, tol):
        assert generated_algebra(operator_set([np.eye(2)]), tol).algebra_dim == 1

    def test_contains_generators(self, tol):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            mats = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 4)))]
            alg = generated_algebra(operator_set(mats), tol)
            worst = max(span_residual(alg.basis, m) / np.linalg.norm(m) for m in mats)
            assert worst <= 1e-10

    def test_idempotent_on_algebras(self, tol):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            alg = generated_algebra(
                operator_set([random_hermitian(rng, n), random_hermitian(rng, n)]), tol)
            again = generated_algebra(alg.as_set(), tol)
            assert span_equal(alg, again, tol)

    def test_triple_commutant_identity(self, tol):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            mats = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 3)))]
            s = operator_set(mats)
            cp = commutant(s, tol)
            cp3 = commutant(generated_algebra(s, tol).as_set(), tol)
            assert span_equal(cp, cp3, tol)


class TestCenter:
    def test_full_algebra_has_scalar_center(self, tol):
        full = commutant(operator_set([np.eye(4)]), tol)
        z = center(full, tol)
        assert z.algebra_dim == 1 and z.contains_identity

    def test_two_block_algebra(self, tol):
        # M2 (+) M2 inside M4
        gens = [np.kron(np.diag([1.0, 0.0]), m) + np.kron(np.diag([0.0, 1.0]), m2)
                for m, m2 in [(SX, SZ), (SZ, SX), (SY, SY)]]
        alg = generated_algebra(operator_set(gens), tol)
        assert alg.algebra_dim == 8
        assert center(alg, tol).algebra_dim == 2

    def test_commutant_of_two_valued_diagonal(self, tol):
        c = commutant(operator_set([np.diag([1.0, 1.0, 2.0]).astype(complex)]), tol)
        assert center(c, tol).algebra_dim == 2

    def test_center_is_abelian(self, tol):
        rng = np.random.default_rng(53)
        for _ in range(10):
            alg = generated_algebra(operator_set([random_hermitian(rng, 4)]), tol)
            ab, _ = is_abelian(center(alg, tol), tol)
            assert ab


def full_stack_closure_dim(s, tol):
    """Reference word closure: each round re-ranks the whole stack by one SVD.

    The stack is ``[basis, g basis, basis g]`` over the star-completed
    generators at unit operator norm, with a cutoff relative to its top
    singular value; the closure ends when a round leaves the rank unchanged.
    """
    s = star_completion(s)
    n = s.dim
    norms = np.linalg.norm(s.members, ord=2, axis=(1, 2))
    gens = s.members / np.where(norms > 0, norms, 1.0)[:, None, None]
    basis = np.concatenate([np.eye(n, dtype=complex)[None] / np.sqrt(n), gens])
    rank = 0
    while True:
        left = (gens[:, None] @ basis[None]).reshape(-1, n, n)
        right = (basis[None] @ gens[:, None]).reshape(-1, n, n)
        stack = np.concatenate([basis, left, right]).reshape(-1, n * n)
        _, sv, vh = np.linalg.svd(stack, full_matrices=False)
        keep = sv > tol.rank_tol * sv[0]
        if int(keep.sum()) == rank:
            return rank
        rank = int(keep.sum())
        basis = vh[keep].reshape(-1, n, n)


def planted_case(seed):
    """Seeded planted generators (acceptance-sweep patterns) and their Σ ñ²."""
    rng = np.random.default_rng(seed)
    pattern = sample_pattern(rng)
    gens, _ = planted_block_algebra(rng, pattern)
    return rng, gens, sum(t * t for _, t in pattern)


# few examples, no example database: these are invariance checks, not a search
METAMORPHIC = settings(max_examples=15, deadline=None, derandomize=True, database=None)


class TestWordClosure:
    """The frontier closure against the full-stack reference and under symmetries."""

    def test_matches_full_stack_on_planted_sweep(self):
        for trial in range(40):
            _, gens, planted = planted_case(8000 + trial)
            t = ToleranceConfig(seed=trial)
            s = operator_set(gens, tol=t)
            assert _word_closure_dim(s, t) == full_stack_closure_dim(s, t) == planted

    def test_raising_operator(self, tol):
        # the 4 x 4 shift is not *-closed; with its adjoint it generates M_4
        s = operator_set([np.diag(np.ones(3), 1)], tol=tol)
        assert not s.self_adjoint_closed
        assert _word_closure_dim(s, tol) == full_stack_closure_dim(s, tol) == 16

    def test_zero_generator_alongside_nonzero(self, tol):
        s = operator_set([np.zeros((3, 3)), np.diag([1.0, 2.0, 2.0])], tol=tol)
        assert _word_closure_dim(s, tol) == full_stack_closure_dim(s, tol) == 2

    def test_mixed_scale_generators(self, tol):
        gens, _ = planted_block_algebra(np.random.default_rng(89), [(1, 2), (2, 3)])
        s = operator_set([1e6 * gens[0], 1e-6 * gens[1]], tol=tol)
        assert _word_closure_dim(s, tol) == full_stack_closure_dim(s, tol) == 13

    def test_perturbed_generator_matches_full_stack(self):
        # a planted generator plus eps * (unit Hermitian) * ||G||: at 1e-5 the
        # products leave directions near the cutoff (the seventh draw below
        # lost orthonormality and grew without bound before the kept block
        # was re-orthogonalised)
        rng = np.random.default_rng(0)
        for eps in (1e-5, 1e-7, 1e-9):
            for trial in range(8):
                gens, _ = planted_block_algebra(rng, sample_pattern(rng))
                h = random_hermitian(rng, gens[0].shape[0])
                gens[0] = gens[0] + eps * np.linalg.norm(gens[0]) * h / np.linalg.norm(h)
                t = ToleranceConfig(seed=trial)
                s = operator_set(gens, tol=t)
                assert _word_closure_dim(s, t) == full_stack_closure_dim(s, t)

    def test_runaway_span_raises(self, tol, monkeypatch):
        def one_more_column(q, cand, drop):
            return np.hstack([q, cand[:, :1]])

        monkeypatch.setattr(opalgebra, "orthonormal_columns_extend", one_more_column)
        with pytest.raises(PostconditionFailure, match="n\\^2"):
            _word_closure_dim(operator_set([SX, SZ], tol=tol), tol)

    def test_does_not_read_the_commutant(self, tol, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the word closure must stay independent of S''")

        monkeypatch.setattr(opalgebra, "commutant", forbidden)
        monkeypatch.setattr(opalgebra, "OperatorAlgebra", forbidden)
        gens, _ = planted_block_algebra(np.random.default_rng(97), [(1, 3), (2, 2)])
        assert _word_closure_dim(operator_set(gens, tol=tol), tol) == 13

    @METAMORPHIC
    @given(seed=st.integers(0, 2**32 - 1),
           exponents=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    def test_invariant_under_rescaling(self, seed, exponents):
        _, gens, planted = planted_case(seed)
        scaled = [10.0 ** e * g for e, g in zip(exponents, gens)]
        tol = ToleranceConfig()
        assert _word_closure_dim(operator_set(scaled, tol=tol), tol) == planted

    @METAMORPHIC
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_reordering_and_duplication(self, seed):
        _, gens, planted = planted_case(seed)
        tol = ToleranceConfig()
        assert _word_closure_dim(operator_set(gens[::-1], tol=tol), tol) == planted
        assert _word_closure_dim(operator_set([gens[1], *gens, gens[0]], tol=tol),
                                 tol) == planted

    @METAMORPHIC
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_unitary_conjugation(self, seed):
        rng, gens, planted = planted_case(seed)
        u = random_unitary(rng, gens[0].shape[0])
        tol = ToleranceConfig()
        conj = [u @ g @ u.conj().T for g in gens]
        assert _word_closure_dim(operator_set(conj, tol=tol), tol) == planted


def pairwise_max_commutator(basis):
    """Reference: worst relative commutator over every ordered pair, one pair at a time."""
    norms = [np.linalg.norm(b) for b in basis]
    return max(np.linalg.norm(basis[i] @ basis[j] - basis[j] @ basis[i]) / (norms[i] * norms[j])
               for i in range(len(basis)) for j in range(len(basis)))


class TestIsAbelian:
    def test_diagonal_algebra(self, tol):
        alg = generated_algebra(operator_set([np.diag([1.0, 2.0, 3.0]).astype(complex)]), tol)
        ab, resid = is_abelian(alg, tol)
        assert ab and resid <= 1e-10

    def test_full_matrix_algebra(self, tol):
        full = commutant(operator_set([np.eye(2)]), tol)
        ab, resid = is_abelian(full, tol)
        assert not ab and resid > 0.1

    @pytest.mark.parametrize("pattern, abelian", [
        ([(1, 1), (2, 1), (3, 1)], True),    # generated algebra: all ntilde = 1
        ([(1, 2), (2, 3)], False),
    ])
    def test_matches_pairwise_reference(self, tol, pattern, abelian):
        gens, _ = planted_block_algebra(np.random.default_rng(71), pattern)
        alg = generated_algebra(operator_set(gens, tol=tol), tol)
        got_abelian, worst = is_abelian(alg, tol)
        ref = pairwise_max_commutator(alg.basis)
        assert got_abelian == abelian == (ref <= 1e-8)
        # an abelian algebra's ratio is roundoff (~1e-16), which a different
        # summation order moves by a few percent: compare it on the ratio's
        # own scale (it is at most 2) instead of relatively
        assert worst == pytest.approx(ref, rel=1e-12, abs=1e-14)


class TestCheckDirac:
    def test_diagonal_algebra_is_its_own_witness(self, tol):
        o = generated_algebra(operator_set([np.diag([1.0, 2.0, 3.0]).astype(complex)]), tol)
        rep = check_dirac(central_decomposition(o, tol), tol)
        assert rep.v2_holds
        assert rep.witness_is_maximal_abelian and rep.witness_in_observables
        assert span_equal(rep.witness, o, tol)  # O' = O cannot grow

    def test_tensor_factor_fails(self, tol):
        o = generated_algebra(
            operator_set([np.kron(SX, np.eye(2)), np.kron(SZ, np.eye(2))]), tol)
        rep = check_dirac(central_decomposition(o, tol), tol)
        assert not rep.v2_holds
        assert rep.witness is None
        assert rep.commutant_dim == 4  # 1 (x) M2

    def test_full_matrix_algebra(self, tol):
        o = commutant(operator_set([np.eye(5)]), tol)
        rep = check_dirac(central_decomposition(o, tol), tol)
        assert rep.v2_holds and rep.commutant_dim == 1
        assert rep.witness.algebra_dim == 5
        assert rep.witness_is_maximal_abelian and rep.witness_in_observables

    def test_witness_is_rank_one_sector_projectors(self, tol):
        # O = M2 (+) M3 in a random basis: two sectors with ntilde >= 2, abelian O'
        gens, _ = planted_block_algebra(np.random.default_rng(17), [(1, 2), (1, 3)])
        o = generated_algebra(operator_set(gens, tol=tol), tol)
        rep = check_dirac(central_decomposition(o, tol), tol)
        assert rep.v2_holds and rep.commutant_dim == 2
        basis = rep.witness.basis
        assert basis.shape == (5, 5, 5)
        for p in basis:
            assert np.allclose(p, p.conj().T, atol=1e-12)
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.linalg.matrix_rank(p, tol=1e-8) == 1
            assert span_residual(o.basis, p) <= 100 * tol.rank_tol
        vecs = basis.reshape(5, -1)
        assert np.allclose(vecs.conj() @ vecs.T, np.eye(5), atol=1e-12)
        assert np.allclose(basis.sum(axis=0), np.eye(5), atol=1e-12)
        assert rep.witness_is_maximal_abelian and rep.witness_in_observables


class TestPlantedStructure:
    def test_dimension_accounting(self, tol):
        # small preview of the acceptance sweep
        rng = np.random.default_rng(61)
        for trial in range(20):
            pattern = sample_pattern(rng)
            gens, _ = planted_block_algebra(rng, pattern)
            n = gens[0].shape[0]
            trial_tol = ToleranceConfig(seed=trial)
            s = operator_set(gens, tol=trial_tol)
            o = generated_algebra(s, trial_tol)
            cp = commutant(s, trial_tol)
            dec = central_decomposition(o, trial_tol)
            assert sorted((sec.d, sec.ntilde) for sec in dec.sectors) == sorted(pattern)
            assert sum(sec.d * sec.ntilde for sec in dec.sectors) == n
            assert o.algebra_dim == sum(t * t for _, t in pattern)
            assert cp.algebra_dim == sum(d * d for d, _ in pattern)
