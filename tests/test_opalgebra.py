import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_set,
    brute_force_commutant,
    fake_separations,
    full_basis_commutant,
    generic_eigenvalues,
    pairwise_max_commutator,
    planted_block_algebra,
    sample_pattern,
    validate_algebra,
)
from superselect import opalgebra, sectors
from superselect.errors import (
    ClosureMismatch,
    DegenerateGenericElement,
    DimensionMismatch,
    PostconditionFailure,
    SuperselectError,
)
from superselect.numkernel import (
    MEMBER_TOL,
    RANK_TOL,
    SPAN_TOL,
    orthonormal_nullspace,
    random_hermitian,
    random_unitary,
)
from superselect.opalgebra import (
    JOIN_FRACTION,
    OperatorAlgebra,
    _coupled_components,
    _generic_hermitian_combo,
    _generic_split,
    _max_span_residual,
    _pair_commutant,
    _pair_commutant_equals,
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
from superselect.parastat import TensorRep, invariant_algebra
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

    def test_star_closure_at_mixed_scales(self, seed):
        # {1e6 I, 1e-6 E_01} lacks E_10 however small the raising member is;
        # at unit scale the set is not *-closed and generates all of M_2
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        s = operator_set([1e6 * np.eye(2), 1e-6 * raising])
        assert s.self_adjoint_closed is False
        assert len(star_completion(s)) == 4
        assert generated_algebra(s, seed).algebra_dim == 4
        assert generated_algebra(operator_set([np.eye(2), raising]), seed).algebra_dim == 4

    def test_zero_members_do_not_decide_star_closure(self):
        zero = np.zeros((2, 2), dtype=complex)
        assert operator_set([zero]).self_adjoint_closed
        assert operator_set([zero, SX]).self_adjoint_closed
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        assert not operator_set([zero, raising]).self_adjoint_closed


class TestCommutant:
    def test_identity_gives_full_algebra(self, seed):
        c = commutant(operator_set([np.eye(2)]), seed)
        assert c.algebra_dim == 4
        validate_algebra(c)

    def test_pauli_generators_give_scalars(self, seed):
        c = commutant(operator_set([SX, SY, SZ]), seed)
        assert c.algebra_dim == 1
        assert span_residual(c.basis, np.eye(2) / np.sqrt(2)) <= 1e-10

    def test_block_diagonal_example(self, seed):
        # diag(1,1,2): commutes with M2 (+) M1, dimension 5
        c = commutant(operator_set([np.diag([1.0, 1.0, 2.0]).astype(complex)]), seed)
        assert c.algebra_dim == 5
        validate_algebra(c)

    def test_against_brute_force(self, seed):
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
            got = commutant(operator_set(mats), seed)
            oracle = brute_force_commutant(mats, RANK_TOL)
            assert got.algebra_dim == oracle.shape[0], f"trial {trial}"
            assert span_equal(got, algebra_from_span(list(oracle)))

    def test_all_zero_set_gives_full_algebra(self, seed):
        assert commutant(operator_set([np.zeros((3, 3))]), seed).algebra_dim == 9

    def test_mixed_scale_generators(self, seed):
        # rescaling a generator leaves the span, hence the commutant, unchanged;
        # the 1e-6 generator must not fall below the absolute nullspace cutoff
        for k in range(5):
            gens, _ = planted_block_algebra(np.random.default_rng(k), [(1, 2), (2, 3)])
            ref = commutant(operator_set(gens), seed)
            got = commutant(operator_set([1e6 * gens[0], 1e-6 * gens[1]]), seed)
            assert got.algebra_dim == ref.algebra_dim == 5
            assert span_equal(got, ref)
            assert central_decomposition(got, seed).multiset() \
                == central_decomposition(ref, seed).multiset()

    def test_verification_failing_with_every_member_active_raises(self, seed, monkeypatch):
        # a verification that never passes: the one member of a Hermitian set
        # joins the constraints after the first round, and the second round,
        # with every member active, raises
        real, ratios = opalgebra._verify_commutes, []

        def failing(members, blocks):
            member, ratio = real(members, blocks)
            ratios.append(ratio)
            return member, max(ratio, 1e-6)

        monkeypatch.setattr(opalgebra, "_verify_commutes", failing)
        with pytest.raises(PostconditionFailure,
                           match=r"commutant verification residual 1\.000e-06 above RANK_TOL"):
            commutant(operator_set([np.diag([1.0, 2.0, 3.0])]), seed)
        assert len(ratios) == 2 and max(ratios) <= RANK_TOL

    def test_inclusion_reversal(self, seed):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            small = [random_hermitian(rng, n)]
            big = small + [random_hermitian(rng, n)]
            c_small = commutant(operator_set(small), seed)
            c_big = commutant(operator_set(big), seed)
            worst = max(span_residual(c_small.basis, b) for b in c_big.basis)
            assert worst <= 1e-9


def single_stack_commutant(s, seed):
    """Reference commutant: one nullspace solve over the whole block pattern.

    The generic element's clusters give the pattern, as in ``commutant``;
    every active constraint's commutator with the pattern's matrix units is
    stacked over all ``n^2`` output entries (``A (x) 1 - 1 (x) A^T`` on the
    pattern columns) and reduced by one SVD, with no split into coupled
    components.  Candidates are checked against every member by dense
    commutators, and the worst member joins the constraints until they pass.
    """
    s = star_completion(s)
    n = s.dim
    norms = np.linalg.norm(s.members.reshape(len(s), -1), axis=1)
    members = s.members[norms > 0] / norms[norms > 0, None, None]
    _, v, groups = _generic_split(members, seed, [(101,)], lambda g: True)
    labels = np.repeat(np.arange(len(groups)), [g.size for g in groups])
    rows, cols = np.nonzero(labels[:, None] == labels[None, :])
    mem_rot = v.conj().T @ members @ v
    scale = 2.0 * max(np.linalg.norm(m) for m in mem_rot)
    eye = np.eye(n)
    rng = np.random.default_rng([seed, 102])
    active = [v.conj().T @ _generic_hermitian_combo(members, rng) @ v]
    for _ in range(len(members) + 1):
        cmat = np.vstack([(np.kron(a, eye) - np.kron(eye, a.T))[:, rows * n + cols]
                          for a in active])
        coeffs = orthonormal_nullspace(cmat, scale=scale)
        cands = np.zeros((coeffs.shape[1], n, n), dtype=complex)
        cands[:, rows, cols] = coeffs.T
        ratios = [np.max(np.linalg.norm(a @ cands - cands @ a, axis=(1, 2)))
                  / (2.0 * np.linalg.norm(a)) for a in mem_rot]
        if max(ratios) <= RANK_TOL:
            return OperatorAlgebra(dim=n, basis=v @ cands @ v.conj().T, contains_identity=True)
        active.append(mem_rot[int(np.argmax(ratios))])
    raise AssertionError("reference constraint loop did not converge")


def assert_matches_single_stack(s, seed):
    got = commutant(s, seed)
    ref = single_stack_commutant(s, seed)
    assert got.algebra_dim == ref.algebra_dim
    assert span_equal(got, ref)
    return got


class TestComponentSolve:
    """``commutant`` solves one coupled cluster component at a time; the span must not move."""

    def check_planted(self, pattern, seed):
        gens, _ = planted_block_algebra(np.random.default_rng(seed), list(pattern))
        obs = assert_matches_single_stack(operator_set(gens), seed)  # S'
        assert_matches_single_stack(basis_set(obs), seed)            # S''

    def test_sweep_patterns(self, workloads):
        for k, pattern in enumerate(sorted(set(workloads.sweep_pattern_quota(200)))):
            self.check_planted(pattern, k)

    def test_wide_patterns(self, workloads):
        for k, pattern in enumerate(workloads.WIDE_PATTERNS):
            self.check_planted(pattern, k)

    def test_parastat_cases(self, workloads, seed):
        for n, d in workloads.PARASTAT_CASES:
            rep = TensorRep(n, d)
            assert_matches_single_stack(basis_set(invariant_algebra(rep)), seed)

    def test_generic_hermitian(self, seed):
        # n singleton clusters, none coupled: every component is null in full
        h = random_hermitian(np.random.default_rng(3), 9)
        assert assert_matches_single_stack(operator_set([h]), seed).algebra_dim == 9

    def test_weak_coupling_merges_clusters(self, seed):
        # diag(0, 1) and diag(0, 1) + eps * sigma_x generate M_2: the generic
        # element's two clusters are tied only by an O(eps) block of the second
        # constraint element, here 1e3 times the join threshold
        threshold = JOIN_FRACTION * RANK_TOL * 2.0  # members at unit HS norm
        diag = np.diag([0.0, 1.0]).astype(complex)

        def coupling(eps):
            members = np.stack([diag, diag + eps * SX])
            members /= np.linalg.norm(members, axis=(1, 2))[:, None, None]
            _, v, groups = _generic_split(members, seed, [(101,)], lambda g: True)
            rng = np.random.default_rng([seed, 102])
            x2 = v.conj().T @ _generic_hermitian_combo(members, rng) @ v
            return members, groups, x2, abs(x2[0, 1])

        eps = 1e-6 * 1e3 * threshold / coupling(1e-6)[3]
        members, groups, x2, tie = coupling(eps)
        assert [g.size for g in groups] == [1, 1]
        assert tie == pytest.approx(1e3 * threshold, rel=1e-3)
        _, sizes = _coupled_components(x2[None], groups, threshold)
        assert sizes.tolist() == [2]
        got = assert_matches_single_stack(operator_set(list(members)), seed)
        assert got.algebra_dim == 1


class TestGenericSplit:
    @pytest.fixture
    def members(self):
        rng = np.random.default_rng(13)
        return np.stack([random_hermitian(rng, 5) for _ in range(3)])

    def test_returns_first_accepted_draw(self, members, seed):
        seen = []
        salts = iter([(7, 0), (7, 1), (7, 2)])
        w, v, groups = _generic_split(members, seed, salts,
                                      lambda g: seen.append(g) or len(seen) == 2)
        assert len(seen) == 2 and next(salts) == (7, 2)  # stopped at the first accepted
        w1, v1, groups1 = _generic_split(members, seed, [(7, 1)], lambda g: True)
        assert np.array_equal(w, w1) and np.array_equal(v, v1)
        assert [g.tolist() for g in groups] == [g.tolist() for g in groups1]

    def test_exhausted_salts_raise_naming_the_last(self, members, seed):
        with pytest.raises(DegenerateGenericElement, match=r"salt \(9, 2\)"):
            _generic_split(members, seed, ((9, a) for a in range(3)), lambda g: False)

    @pytest.mark.parametrize("accepted, seps, kept", [
        ((True, True, True), (1e-5, 1e-2, 1.0), 1),   # the first well separated draw
        ((True, True, True), (1e-6, 1e-4, 1e-5), 1),  # none is: the best separated
        ((False, True, True), (1.0, 1e-5, 1e-4), 2),  # a rejected draw is never kept
    ])
    def test_separation_policy(self, members, seed, monkeypatch, accepted, seps, kept):
        salts = [(7, a) for a in range(3)]
        fake_separations(monkeypatch, members, seed, dict(zip(salts, seps)))
        verdicts = iter(accepted)
        w, _, _ = _generic_split(members, seed, salts, lambda g: next(verdicts))
        assert np.array_equal(w, generic_eigenvalues(members, seed, salts[kept]))


class TestGeneratedAlgebra:
    def test_single_reflection(self, seed):
        assert generated_algebra(operator_set([SZ]), seed).algebra_dim == 2

    def test_two_anticommuting_generators_fill_m2(self, seed):
        assert generated_algebra(operator_set([SX, SZ]), seed).algebra_dim == 4

    def test_identity_alone(self, seed):
        assert generated_algebra(operator_set([np.eye(2)]), seed).algebra_dim == 1

    def test_contains_generators(self, seed):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            mats = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 4)))]
            alg = generated_algebra(operator_set(mats), seed)
            worst = max(span_residual(alg.basis, m) / np.linalg.norm(m) for m in mats)
            assert worst <= 1e-10

    def test_idempotent_on_algebras(self, seed):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            alg = generated_algebra(
                operator_set([random_hermitian(rng, n), random_hermitian(rng, n)]), seed)
            again = generated_algebra(basis_set(alg), seed)
            assert span_equal(alg, again)

    def test_triple_commutant_identity(self, seed):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            mats = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 3)))]
            s = operator_set(mats)
            cp = commutant(s, seed)
            cp3 = full_basis_commutant(generated_algebra(s, seed), seed)
            assert span_equal(cp, cp3)


def center_from(side, other):
    """Reference center: the combinations of ``side``'s basis lying in the span of ``other``."""
    n = side.dim
    q = other.basis.reshape(other.algebra_dim, n * n)
    vs = side.basis.reshape(side.algebra_dim, n * n).T
    coeffs = orthonormal_nullspace(vs - q.T @ (q.conj() @ vs), scale=1.0)
    return OperatorAlgebra(dim=n, basis=np.tensordot(coeffs, side.basis, axes=(0, 0)),
                           contains_identity=True)


class TestSpanResidual:
    def test_empty_basis_leaves_the_full_norm(self):
        rng = np.random.default_rng(61)
        mats = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert span_residual(empty, mats[0]) == pytest.approx(np.linalg.norm(mats[0]))
        assert _max_span_residual(empty, mats) == pytest.approx(
            max(np.linalg.norm(m) for m in mats))

    def test_one_matrix_is_the_stack_case(self, seed):
        # the commutant of diag(1, 1, 2) is M_2 (+) M_1: the residual is the
        # part of m outside those blocks
        basis = commutant(operator_set([np.diag([1.0, 1.0, 2.0])]), seed).basis
        m = np.arange(9.0).reshape(3, 3) + 1j
        off = np.concatenate([m[:2, 2], m[2, :2]])
        assert span_residual(basis, m) == _max_span_residual(basis, m[None])
        assert span_residual(basis, m) == pytest.approx(np.linalg.norm(off), rel=1e-12)


class TestSpanEqual:
    @staticmethod
    def two_residual_form(a, b):
        thresh = SPAN_TOL
        return (a.algebra_dim == b.algebra_dim and a.dim == b.dim
                and _max_span_residual(a.basis, b.basis) <= thresh
                and _max_span_residual(b.basis, a.basis) <= thresh)

    @staticmethod
    def random_span(rng, n, q):
        z = rng.standard_normal((n * n, q)) + 1j * rng.standard_normal((n * n, q))
        return np.linalg.qr(z)[0].T  # q orthonormal rows

    def test_agrees_with_the_two_residual_form(self):
        rng = np.random.default_rng(81)
        for n, q in ((3, 1), (3, 5), (4, 9), (5, 16)):
            qa = self.random_span(rng, n, q)
            mix = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))[0]
            qb = mix @ qa  # the same span in another orthonormal basis
            a, b = (OperatorAlgebra(dim=n, basis=v.reshape(q, n, n), contains_identity=False)
                    for v in (qa, qb))
            other = OperatorAlgebra(dim=n, basis=self.random_span(rng, n, q).reshape(q, n, n),
                                    contains_identity=False)
            for x, y in ((a, b), (b, a), (a, other), (other, b)):
                assert span_equal(x, y) == self.two_residual_form(x, y)
            assert span_equal(a, b) and not span_equal(a, other)

    @pytest.mark.parametrize("angle", [1e-6, 1e-3, 0.5])
    def test_one_direction_rotated_out_of_the_span_fails(self, angle):
        rng = np.random.default_rng(82)
        n, q = 4, 6
        full = self.random_span(rng, n, q + 1)
        qa = full[:q]
        qb = qa.copy()
        qb[2] = np.cos(angle) * qa[2] + np.sin(angle) * full[q]  # still orthonormal
        a, b = (OperatorAlgebra(dim=n, basis=v.reshape(q, n, n), contains_identity=False)
                for v in (qa, qb))
        assert not span_equal(a, b) and not span_equal(b, a)
        assert not self.two_residual_form(a, b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_bases_of_the_full_space_are_equal_by_dimension(self, n, monkeypatch):
        # n^2 HS-orthonormal members span all of M_n, so no residual is formed
        rng = np.random.default_rng(83)
        a, b = (OperatorAlgebra(dim=n, basis=self.random_span(rng, n, n * n).reshape(-1, n, n),
                                contains_identity=True) for _ in range(2))
        short = OperatorAlgebra(dim=n, basis=b.basis[:-1], contains_identity=False)
        assert self.two_residual_form(a, b) and not self.two_residual_form(a, short)

        def forbidden(*args, **kwargs):
            raise AssertionError("span_equal compared two bases of the whole space")

        monkeypatch.setattr(opalgebra, "_residual_norm", forbidden)
        assert span_equal(a, b) and span_equal(b, a)
        assert not span_equal(a, short) and not span_equal(short, a)


class TestCenter:
    def test_no_combination_found_is_typed(self, seed, monkeypatch):
        # a nullspace solve that keeps nothing leaves an empty center basis,
        # which must fail the identity check, not an internal reshape
        o = commutant(operator_set([np.diag([1.0, 1.0, 2.0])]), seed)
        cp = full_basis_commutant(o, seed)
        monkeypatch.setattr(opalgebra, "orthonormal_nullspace",
                            lambda m, *a, **kw: np.zeros((m.shape[1], 0), dtype=complex))
        with pytest.raises(PostconditionFailure, match="identity missing from computed center"):
            center(o, commutant_algebra=cp)

    @pytest.mark.parametrize("case", ["planted", "parastat"])
    def test_either_side_gives_the_same_center(self, seed, case):
        # center() solves from the smaller of O and O'; the planted O = S' is
        # smaller than its commutant, parastat's invariant algebra is larger
        if case == "planted":
            gens, _ = planted_block_algebra(np.random.default_rng(7), [(1, 3), (2, 2)])
            o = commutant(operator_set(gens), seed)
        else:
            o = invariant_algebra(TensorRep(3, 3))
        cp = full_basis_commutant(o, seed)
        assert (o.algebra_dim < cp.algebra_dim) == (case == "planted")
        z = center(o, commutant_algebra=cp)
        assert z.algebra_dim == (2 if case == "planted" else 3)
        for ref in (center_from(o, cp), center_from(cp, o)):
            assert span_equal(z, ref)

    def test_full_algebra_has_scalar_center(self, seed):
        full = commutant(operator_set([np.eye(4)]), seed)
        z = center(full, commutant_algebra=full_basis_commutant(full, seed))
        assert z.algebra_dim == 1 and z.contains_identity

    def test_two_block_algebra(self, seed):
        # M2 (+) M2 inside M4
        gens = [np.kron(np.diag([1.0, 0.0]), m) + np.kron(np.diag([0.0, 1.0]), m2)
                for m, m2 in [(SX, SZ), (SZ, SX), (SY, SY)]]
        alg = generated_algebra(operator_set(gens), seed)
        assert alg.algebra_dim == 8
        assert center(alg,
                      commutant_algebra=full_basis_commutant(alg, seed)).algebra_dim == 2

    def test_commutant_of_two_valued_diagonal(self, seed):
        c = commutant(operator_set([np.diag([1.0, 1.0, 2.0]).astype(complex)]), seed)
        assert center(c, commutant_algebra=full_basis_commutant(c, seed)).algebra_dim == 2

    def test_center_is_abelian(self, seed):
        rng = np.random.default_rng(53)
        for _ in range(10):
            alg = generated_algebra(operator_set([random_hermitian(rng, 4)]), seed)
            ab, _ = is_abelian(center(alg,
                                      commutant_algebra=full_basis_commutant(alg, seed)))
            assert ab


def full_stack_closure_dim(s):
    """Reference word closure: each round re-ranks the whole stack by one SVD.

    The stack is ``[basis, g basis, basis g]`` over the star-completed
    generators at unit operator norm, with a cutoff relative to its top
    singular value; the closure ends when a round leaves the rank unchanged.

    A valid reference on planted inputs only.  Seeded with ``{1, generators}``
    it builds powers of each generator one at a time, and on one Hermitian
    generator with a uniform random spectrum that chain amplifies roundoff
    until it fills M_n (144 at n = 12 on 1 of 10 seeds, 256 at n = 16 on 4,
    576 at n = 24 on 6), so ``test_single_generic_generator`` asserts ``== n``
    without it.
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
        keep = sv > RANK_TOL * sv[0]
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
            s = operator_set(gens)
            assert _word_closure_dim(s, trial) == full_stack_closure_dim(s) == planted

    def test_matches_full_stack_on_wide_patterns(self, workloads):
        for k, pattern in enumerate(workloads.WIDE_PATTERNS):
            gens = workloads.planted_generators(np.random.default_rng(k), pattern)
            s = operator_set(gens)
            planted = sum(nt * nt for _, nt in pattern)
            assert _word_closure_dim(s, k) == full_stack_closure_dim(s) == planted

    def test_raising_operator(self, seed):
        # the 4 x 4 shift is not *-closed; with its adjoint it generates M_4
        s = operator_set([np.diag(np.ones(3), 1)])
        assert not s.self_adjoint_closed
        assert _word_closure_dim(s, seed) == full_stack_closure_dim(s) == 16

    def test_zero_generator_alongside_nonzero(self, seed):
        s = operator_set([np.zeros((3, 3)), np.diag([1.0, 2.0, 2.0])])
        assert _word_closure_dim(s, seed) == full_stack_closure_dim(s) == 2

    def test_mixed_scale_generators(self, seed):
        gens, _ = planted_block_algebra(np.random.default_rng(89), [(1, 2), (2, 3)])
        s = operator_set([1e6 * gens[0], 1e-6 * gens[1]])
        assert _word_closure_dim(s, seed) == full_stack_closure_dim(s) == 13

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
                s = operator_set(gens)
                assert _word_closure_dim(s, trial) == full_stack_closure_dim(s)

    @pytest.mark.parametrize("n", [12, 16, 24])
    def test_single_generic_generator(self, n):
        # a uniform spectrum has close eigenvalue pairs; a closure seeded with
        # {1, g} amplified roundoff along g, g^2, ... and filled all of M_n
        # (so does the full-stack reference)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            u = random_unitary(rng, n)
            g = u @ np.diag(rng.uniform(-1.0, 1.0, n)) @ u.conj().T
            assert _word_closure_dim(operator_set([g]), seed) == n

    @pytest.mark.parametrize("spectrum, distinct", [((0, 0, 1, 2, 3), 4),
                                                    ((0, 0, 0, 1, 2), 3),
                                                    ((0, 0, 1, 1, 1, 2), 3)])
    def test_kernel_cluster_alone_in_its_rank_group(self, spectrum, distinct):
        # the kernel projector's products are pure roundoff, and no other
        # cluster has its rank.  This guards the one cutoff per round over all
        # blocks: a cutoff per rank group measured that roundoff against
        # itself, kept it, and returned 8, 6 and 6
        for seed in range(3):
            rng = np.random.default_rng(seed)
            u = random_unitary(rng, len(spectrum))
            g = u @ np.diag(np.array(spectrum, dtype=float)) @ u.conj().T
            assert _word_closure_dim(operator_set([g]), seed) == distinct

    def test_runaway_span_raises(self, seed, monkeypatch):
        # a fake extension that adds one column to every block on every call
        def one_more_column(q, cand, scale=None):
            return np.concatenate([q, cand[..., :1]], axis=-1)

        monkeypatch.setattr(opalgebra, "orthonormal_columns_extend", one_more_column)
        with pytest.raises(PostconditionFailure, match="n\\^2"):
            _word_closure_dim(operator_set([SX, SZ]), seed)

    def test_does_not_read_the_commutant(self, seed, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the word closure must stay independent of S''")

        monkeypatch.setattr(opalgebra, "commutant", forbidden)
        monkeypatch.setattr(opalgebra, "OperatorAlgebra", forbidden)
        gens, _ = planted_block_algebra(np.random.default_rng(97), [(1, 3), (2, 2)])
        assert _word_closure_dim(operator_set(gens), seed) == 13

    @METAMORPHIC
    @given(seed=st.integers(0, 2**32 - 1),
           exponents=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    def test_invariant_under_rescaling(self, seed, exponents):
        _, gens, planted = planted_case(seed)
        scaled = [10.0 ** e * g for e, g in zip(exponents, gens)]
        assert _word_closure_dim(operator_set(scaled), 0) == planted

    @METAMORPHIC
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_reordering_and_duplication(self, seed):
        _, gens, planted = planted_case(seed)
        assert _word_closure_dim(operator_set(gens[::-1]), 0) == planted
        assert _word_closure_dim(operator_set([gens[1], *gens, gens[0]]), 0) == planted

    @METAMORPHIC
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_unitary_conjugation(self, seed):
        rng, gens, planted = planted_case(seed)
        u = random_unitary(rng, gens[0].shape[0])
        conj = [u @ g @ u.conj().T for g in gens]
        assert _word_closure_dim(operator_set(conj), 0) == planted


class TestClosureBlockSizes:
    def test_rows_per_block_on_a_two_sector_input(self, seed, monkeypatch):
        # planted ((2,5),(2,7)) at n = 24: twelve eigenvalue clusters of rank 2,
        # so every extension is one stack of twelve 48-row blocks; the closure
        # over all of M_n passed 576 = n^2 rows
        shapes = []
        real = opalgebra.orthonormal_columns_extend

        def record(q, cand, *args, **kwargs):
            shapes.append(cand.shape[:-1])
            return real(q, cand, *args, **kwargs)

        gens, _ = planted_block_algebra(np.random.default_rng(5), [(2, 5), (2, 7)])
        s = operator_set(gens)  # orthonormalises its members in M_n
        monkeypatch.setattr(opalgebra, "orthonormal_columns_extend", record)
        assert _word_closure_dim(s, seed) == 74
        assert shapes and set(shapes) == {(12, 48)}
        assert max(rows for _, rows in shapes) <= 24 * 2


class TestCommutatorKernel:
    """``_verify_commutes``, the one routine that forms commutator products, on dense references."""

    @staticmethod
    def dense_ratios(members, lo, hi, cands):
        """Per member: max over candidates of ||A B - B A|| / (2 ||A||), each B on ``lo:hi`` of M_n."""
        n = members.shape[-1]
        ratios = []
        for a in members:
            worst = 0.0
            for c in cands:
                b = np.zeros((n, n), dtype=complex)
                b[lo:hi, lo:hi] = c
                worst = max(worst, np.linalg.norm(a @ b - b @ a))
            norm = np.linalg.norm(a)
            ratios.append(worst / (2 * norm) if norm > 0 else 0.0)
        return np.array(ratios)

    @pytest.mark.parametrize("n", [3, 7, 12])
    @pytest.mark.parametrize("block", ["partial", "full"])
    def test_matches_dense_commutators(self, n, block):
        rng = np.random.default_rng(n)
        members = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        members[1] = 0.0  # a zero member commutes with every candidate
        lo, hi = (1, n - 1) if block == "partial" else (0, n)
        m = hi - lo
        cands = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
        blocks = [(lo, hi, cands)]
        ref = self.dense_ratios(members, lo, hi, cands)
        assert ref[1] == 0.0 and np.all(np.delete(ref, 1) > 0.1)
        member, ratio = opalgebra._verify_commutes(members, blocks)
        assert member == int(np.argmax(ref))
        assert ratio == pytest.approx(ref[member], rel=1e-12)
        for i in range(len(members)):  # each member alone, one chunk each
            assert opalgebra._verify_commutes(members[i:i + 1], blocks)[1] == pytest.approx(
                ref[i], rel=1e-12)

    @pytest.mark.parametrize("n, q, chunk", [
        (12, 40, None),  # 40 candidates of up to 12 x 12: more than one chunk
        (7, 5, 1),       # one candidate and one member per chunk
        (6, 9, 200),     # a few candidates per chunk, the last chunk shorter
    ])
    @pytest.mark.parametrize("block", ["partial", "full"])
    def test_chunks_over_candidates(self, monkeypatch, n, q, chunk, block):
        if chunk is not None:
            monkeypatch.setattr(opalgebra, "VERIFY_CHUNK", chunk)
        rng = np.random.default_rng([n, q])
        members = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        lo, hi = (2, n - 1) if block == "partial" else (0, n)
        m = hi - lo
        cands = rng.standard_normal((q, m, m)) + 1j * rng.standard_normal((q, m, m))
        if chunk is None:
            assert q * n * m > opalgebra.VERIFY_CHUNK
        ref = self.dense_ratios(members, lo, hi, cands)
        member, ratio = opalgebra._verify_commutes(members, [(lo, hi, cands)])
        assert member == int(np.argmax(ref))
        assert ratio == pytest.approx(ref[member], rel=1e-12)

    @staticmethod
    def unit_case(n, kind):
        """Three members of M_n, generic or ``c 1 + 1e-9 H``, and ``(q, 2)`` units ``(r, c)``.

        Every unit for n <= 12; at n = 64 the diagonal units and 200 others.
        """
        rng = np.random.default_rng([n, 7])
        members = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        if kind == "near-scalar":
            members = (0.8 - 0.6j) * np.eye(n) + 1e-9 * members
        units = np.argwhere(np.ones((n, n), dtype=bool))
        if n > 12:
            off = units[units[:, 0] != units[:, 1]]
            units = np.concatenate([np.stack([np.arange(n)] * 2, axis=1),
                                    off[rng.choice(len(off), 200, replace=False)]])
        return members, units

    @pytest.mark.parametrize("n", [3, 7, 12, 64])
    @pytest.mark.parametrize("kind", ["generic", "near-scalar"])
    def test_unit_residuals_match_dense_commutators(self, n, kind):
        members, units = self.unit_case(n, kind)
        rows, cols = units[:, 0], units[:, 1]
        ref = np.empty((len(members), len(units)))
        for j, (r, c) in enumerate(units):
            b = np.zeros((n, n), dtype=complex)
            b[r, c] = 1.0
            ref[:, j] = np.linalg.norm(members @ b - b @ members, axis=(1, 2)) ** 2
        assert np.min(ref) > 0.0
        np.testing.assert_allclose(opalgebra._unit_residuals(members, rows, cols), ref,
                                   rtol=1e-12, atol=0.0)
        if kind == "near-scalar":
            # sum_{x != r} |A_xr|^2 as ||A e_r||^2 - |A_rr|^2 cancels against
            # the scalar part: on these members it is off by more than 1e-3
            # relative, where the closed form meets 1e-12
            mass = np.abs(members) ** 2
            subtracted = mass.sum(axis=1) - np.diagonal(mass, axis1=1, axis2=2)
            exact = np.stack([(m * (1 - np.eye(n))).sum(axis=0) for m in mass])
            assert np.max(np.abs(subtracted - exact) / exact) > 1e-3

    @pytest.mark.parametrize("n", [3, 7, 12, 64])
    @pytest.mark.parametrize("kind", ["generic", "near-scalar"])
    def test_matrix_units_match_dense_commutators(self, n, kind):
        # a null component's units on the block 1:n, beside a solved 1 x 1 block
        members, units = self.unit_case(n, kind)
        lo, hi = 1, n
        units = units[(units >= lo).all(axis=1)] - lo
        m = hi - lo
        cands = np.zeros((len(units), m, m), dtype=complex)
        cands[np.arange(len(units)), units[:, 0], units[:, 1]] = 1.0
        ref = self.dense_ratios(members, lo, hi, cands)
        member, ratio = opalgebra._verify_commutes(members, [(lo, hi, units)])
        assert member == int(np.argmax(ref))
        assert ratio == pytest.approx(ref[member], rel=1e-12)
        for i in range(len(members)):
            assert opalgebra._verify_commutes(members[i:i + 1], [(lo, hi, units)])[1] \
                == pytest.approx(ref[i], rel=1e-12)
        # beside a dense block, the worst of both
        corner = (0, 1, np.ones((1, 1, 1), dtype=complex))
        alone = opalgebra._verify_commutes(members, [corner])[1]
        assert opalgebra._verify_commutes(members, [corner, (lo, hi, units)])[1] \
            == max(ratio, alone)

    @pytest.mark.parametrize("pattern", [
        [(1, 2), (1, 1)],    # n = 3: one 1 x 1 null component
        [(1, 3), (4, 1)],    # n = 7: a 4 x 4 null component, 16 units
        [(1, 4), (8, 1)],    # n = 12: 64 units
        [(1, 32), (32, 1)],  # n = 64: 1024 units
    ])
    def test_commutant_rotates_units_as_outer_products(self, seed, monkeypatch, pattern):
        # S acts as M_t on one block and as a scalar on the other, so S' is
        # a scalar there (a solved component) and all of M_d here (null in
        # full); each basis element must be V B V* of its candidate B
        solved, splits = [], []
        real_solve, real_split = opalgebra._solve_components, opalgebra._generic_split

        def solve(*args):
            solved.append(real_solve(*args))
            return solved[-1]

        def split(members, seed, salts, accept):
            splits.append(real_split(members, seed, salts, accept))
            return splits[-1]

        monkeypatch.setattr(opalgebra, "_solve_components", solve)
        monkeypatch.setattr(opalgebra, "_generic_split", split)
        gens, _ = planted_block_algebra(np.random.default_rng(9), pattern)
        basis = commutant(operator_set(gens), seed).basis
        perm, blocks = solved[-1]
        assert sorted(c.ndim for _, _, c in blocks) == [2, 3]
        vp = splits[0][1][:, perm]
        ref = []
        for lo, hi, cands in blocks:
            if cands.ndim == 2:
                dense = np.zeros((len(cands), hi - lo, hi - lo), dtype=complex)
                dense[np.arange(len(cands)), cands[:, 0], cands[:, 1]] = 1.0
                cands = dense
            ref.append(vp[:, lo:hi] @ cands @ vp[:, lo:hi].conj().T)
        ref = np.concatenate(ref)
        assert basis.shape == ref.shape == (1 + pattern[1][0] ** 2,) + basis.shape[1:]
        assert np.max(np.linalg.norm(basis - ref, axis=(1, 2))) <= 1e-12

    @pytest.mark.parametrize("n, d, value", [
        (3, 3, 0.25660011963983376),  # 6 unitaries at n = 27: chunks of 5 and 1
        (4, 2, 0.30618621784789724),  # 24 unitaries at n = 16: chunks of 16 and 8
    ])
    def test_max_commutator_on_parastat_stacks_is_pinned(self, n, d, value):
        # the values the kernel gave when it chunked over members only, bit for bit
        rep = TensorRep(n, d)
        stack = rep.unitaries
        assert len(stack) * rep.dim ** 2 > opalgebra.VERIFY_CHUNK
        assert opalgebra._max_commutator(stack) == value

    def test_max_commutator_reads_the_kernel(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        stack[2] = 0.0
        ref = pairwise_max_commutator(stack)
        assert opalgebra._max_commutator(stack) == pytest.approx(ref, rel=1e-12)
        assert opalgebra._max_commutator(np.zeros((2, 3, 3), dtype=complex)) == 0.0


class TestIsAbelian:
    def test_diagonal_algebra(self, seed):
        alg = generated_algebra(operator_set([np.diag([1.0, 2.0, 3.0]).astype(complex)]), seed)
        ab, resid = is_abelian(alg)
        assert ab and resid <= 1e-10

    def test_full_matrix_algebra(self, seed):
        full = commutant(operator_set([np.eye(2)]), seed)
        ab, resid = is_abelian(full)
        assert not ab and resid > 0.1

    @pytest.mark.parametrize("pattern, abelian", [
        ([(1, 1), (2, 1), (3, 1)], True),    # generated algebra: all ntilde = 1
        ([(1, 2), (2, 3)], False),
    ])
    def test_matches_pairwise_reference(self, seed, pattern, abelian):
        gens, _ = planted_block_algebra(np.random.default_rng(71), pattern)
        alg = generated_algebra(operator_set(gens), seed)
        got_abelian, worst = is_abelian(alg)
        ref = pairwise_max_commutator(alg.basis)
        assert got_abelian == abelian == (ref <= 1e-8)
        # an abelian algebra's ratio is roundoff (~1e-16), which a different
        # summation order moves by a few percent: compare it on the ratio's
        # own scale (it is at most 2) instead of relatively
        assert worst == pytest.approx(ref, rel=1e-12, abs=1e-14)


class TestCheckDirac:
    def test_diagonal_algebra_is_its_own_witness(self, seed):
        o = generated_algebra(operator_set([np.diag([1.0, 2.0, 3.0]).astype(complex)]), seed)
        rep = check_dirac(central_decomposition(o, seed), seed)
        assert rep.v2_holds
        assert rep.witness_is_maximal_abelian and rep.witness_in_observables
        assert span_equal(rep.witness, o)  # O' = O cannot grow

    def test_tensor_factor_fails(self, seed):
        o = generated_algebra(
            operator_set([np.kron(SX, np.eye(2)), np.kron(SZ, np.eye(2))]), seed)
        dec = central_decomposition(o, seed)
        rep = check_dirac(dec, seed)
        assert not rep.v2_holds
        assert rep.witness is None
        assert dec.commutant.algebra_dim == 4  # 1 (x) M2

    def test_full_matrix_algebra(self, seed):
        o = commutant(operator_set([np.eye(5)]), seed)
        dec = central_decomposition(o, seed)
        rep = check_dirac(dec, seed)
        assert rep.v2_holds and dec.commutant.algebra_dim == 1
        assert rep.witness.algebra_dim == 5
        assert rep.witness_is_maximal_abelian and rep.witness_in_observables

    def test_witness_is_rank_one_sector_projectors(self, seed):
        # O = M2 (+) M3 in a random basis: two sectors with ntilde >= 2, abelian O'
        gens, _ = planted_block_algebra(np.random.default_rng(17), [(1, 2), (1, 3)])
        o = generated_algebra(operator_set(gens), seed)
        dec = central_decomposition(o, seed)
        rep = check_dirac(dec, seed)
        assert rep.v2_holds and dec.commutant.algebra_dim == 2
        basis = rep.witness.basis
        assert basis.shape == (5, 5, 5)
        for p in basis:
            assert np.allclose(p, p.conj().T, atol=1e-12)
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.linalg.matrix_rank(p, tol=1e-8) == 1
            assert span_residual(o.basis, p) <= MEMBER_TOL
        vecs = basis.reshape(5, -1)
        assert np.allclose(vecs.conj() @ vecs.T, np.eye(5), atol=1e-12)
        assert np.allclose(basis.sum(axis=0), np.eye(5), atol=1e-12)
        assert rep.witness_is_maximal_abelian and rep.witness_in_observables


def commutant_matches(target, solve):
    """Whether the commutant ``solve()`` returns spans ``target``; a failed solve counts as no."""
    try:
        return span_equal(target, solve())
    except PostconditionFailure:
        return False


class TestGenericPairCrossChecks:
    """Planted faults against the cross-checks that take a generic pair's commutant.

    The triple commutant, the d = 1 irreducibility check and the witness's
    ``A = A'`` compare the commutant of a seeded generic pair drawn from an
    algebra (:func:`_pair_commutant`).  The full-basis form, the commutant of
    the whole basis, is the reference: every fault it catches, the pair must
    catch too.
    """

    def test_pair_is_seeded_hermitian_and_star_closed(self, seed, monkeypatch):
        # the commutant of M_2 + M_1, solved from the two members of one stream
        basis = commutant(operator_set([np.diag([1.0, 1.0, 2.0])]), seed).basis
        sets, real = [], opalgebra.commutant
        monkeypatch.setattr(opalgebra, "commutant", lambda s, seed: sets.append(s) or real(s, seed))
        drawn, first = _pair_commutant(basis, seed, (105,))
        assert np.array_equal(first.basis, _pair_commutant(basis, seed, (105,))[1].basis)
        assert first.algebra_dim == 2
        _pair_commutant(basis, seed, (106,))
        pair, again, other = sets
        assert np.array_equal(drawn, pair.members)  # the pair whose commutant was solved
        assert len(pair) == 2 and pair.self_adjoint_closed
        assert np.array_equal(pair.members, pair.members.conj().transpose(0, 2, 1))
        assert np.array_equal(pair.members, again.members)
        assert not np.allclose(pair.members, other.members)

    def test_pair_restricted_to_blocks_it_misses_raises(self, seed):
        # the stack lives on the first two columns of a unitary u of C^4 and
        # the isometry spans the last two: the restricted pair is roundoff,
        # which commutant's unit scaling would read as a constraint
        u = random_unitary(np.random.default_rng(5), 4)
        stack = commutant(operator_set([np.diag([1.0, 2.0])]), seed).basis
        stack = u @ np.pad(stack, ((0, 0), (0, 2), (0, 2))) @ u.conj().T
        with pytest.raises(DegenerateGenericElement,
                           match=r"salt \(204,\) vanishes, to RANK_TOL of its norm, on the blocks"):
            _pair_commutant(stack, seed, (204,), u[:, 2:])
        # the same pair restricted to the blocks it lives on is kept
        pair, t_cp = _pair_commutant(stack, seed, (204,), u[:, :2])
        assert pair.shape == (2, 2, 2) and t_cp.algebra_dim == 2

    @staticmethod
    def planted_generated(workloads, count):
        """``(seed, S', S'')`` of planted sweep and wide items whose S'' is not M_n."""
        rng = np.random.default_rng(19)
        quota = [p for p in workloads.sweep_pattern_quota(200)
                 if not (len(p) == 1 and p[0][0] == 1)]  # S'' = M_n has no outside
        patterns = quota[::len(quota) // count][:count] + list(workloads.WIDE_PATTERNS)
        for pattern in patterns:
            seed = int(rng.integers(2 ** 31))
            s = operator_set(workloads.planted_generators(rng, pattern))
            obs = commutant(s, seed)
            yield seed, obs, central_decomposition(obs, seed).commutant

    @staticmethod
    def triple_forms(obs, gen_basis, seed):
        """Verdicts of the triple commutant identity, in three forms.

        The full-basis reference and the generic pair's span comparison are
        references; the defining-equation form is the ``algebra`` command's
        own check (:func:`_pair_commutant_equals`: O's basis commutes with
        the pair, and the dimensions agree).  A failed solve counts as no.
        """
        full = OperatorAlgebra(dim=obs.dim, basis=gen_basis, contains_identity=True)
        try:
            defining = _pair_commutant_equals(gen_basis, seed, (105,), obs.basis)[2]
        except PostconditionFailure:
            defining = False
        return (commutant_matches(obs, lambda: full_basis_commutant(full, seed)),
                commutant_matches(obs, lambda: _pair_commutant(gen_basis, seed, (105,))[1]),
                defining)

    @staticmethod
    def rotated_out(basis, seed, angles):
        """``(angle, basis)``, the first element turned toward a unit direction off the span."""
        rng = np.random.default_rng([seed, 7])
        x = rng.standard_normal(basis.shape[1:]) + 1j * rng.standard_normal(basis.shape[1:])
        x -= np.tensordot(np.tensordot(basis.conj(), x, axes=2), basis, axes=1)
        x /= np.linalg.norm(x)
        for angle in angles:
            faulty = basis.copy()
            faulty[0] = np.cos(angle) * basis[0] + np.sin(angle) * x
            yield angle, faulty

    def test_triple_commutant_direction_rotated_out_of_the_span(self, workloads):
        # one basis direction of S'' turned toward a unit direction outside
        # its span: the set generates more than S'', its commutant is smaller
        # than S', and every form must fail.  The pair's commutant loses
        # dimensions, so the dimension test alone sees each of these faults
        cases = 0
        for seed, obs, gen in self.planted_generated(workloads, 16):
            assert self.triple_forms(obs, gen.basis, seed) == (True, True, True)
            for angle, faulty in self.rotated_out(gen.basis, seed, (1e-6, 1e-3, 0.5)):
                assert self.triple_forms(obs, faulty, seed) == (False, False, False), angle
                assert _pair_commutant(faulty, seed, (105,))[1].algebra_dim < obs.algebra_dim
                cases += 1
        assert cases == 66

    def test_triple_commutant_observable_rotated_out_of_the_commutant(self, workloads):
        # one basis direction of O = S' turned toward a unit direction outside
        # S': dim O is kept, so only the commutation test sees the fault, and
        # every form must fail.  At 1e-6 rad the relative commutator is about
        # 1e-7, two decades above SPAN_TOL
        cases = 0
        for seed, obs, gen in self.planted_generated(workloads, 16):
            if obs.algebra_dim == obs.dim ** 2:
                continue  # O = M_n has no outside
            for angle, faulty in self.rotated_out(obs.basis, seed, (1e-6, 1e-3, 0.5)):
                moved = OperatorAlgebra(dim=obs.dim, basis=faulty, contains_identity=True)
                assert self.triple_forms(moved, gen.basis, seed) == (False, False, False), angle
                cases += 1
        assert cases == 63  # one of the 22 patterns has O = M_n

    def test_triple_commutant_with_a_dropped_basis_element_passes(self, workloads):
        # not a fault: the commutant of a set depends only on the algebra it
        # generates, and the rest of a basis of S'' still generates S''
        for seed, obs, gen in self.planted_generated(workloads, 6):
            if gen.algebra_dim > 2:
                assert self.triple_forms(obs, gen.basis[1:], seed) == (True, True, True)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_witness_with_a_rotated_vector_is_not_maximal_abelian(self, seed, n):
        # O = M_n has one d = 1 sector, whose isometry is swapped for a random
        # unitary with e_0 turned toward e_1: the rank-one projectors no
        # longer commute, so the witness is not its own commutant
        o = commutant(operator_set([np.eye(n)]), seed)
        dec = central_decomposition(o, seed)
        u = random_unitary(np.random.default_rng(n), n)
        for angle in (0.0, 1e-8, 1e-6, 1e-3, 0.5):
            w = u.copy()
            w[:, 0] = np.cos(angle) * u[:, 0] + np.sin(angle) * u[:, 1]
            sector = dataclasses.replace(dec.sectors[0], isometry=w)
            rep = check_dirac(dataclasses.replace(dec, sectors=(sector,)), seed)
            full = commutant_matches(rep.witness,
                                     lambda: full_basis_commutant(rep.witness, seed))
            assert rep.v2_holds and rep.witness_in_observables
            assert (full, rep.witness_is_maximal_abelian) == (angle == 0.0,) * 2, angle

    @pytest.mark.parametrize("blocks", [(1, 1, 1), (1, 2), (2, 2), (1, 3)])
    def test_reducible_restricted_stack_has_a_non_scalar_commutant(self, seed, blocks):
        # the d = 1 check counts blocks: a restricted stack that spans a direct
        # sum of full matrix blocks, in a random basis, has a pair commutant of
        # one dimension per block, so a block that splits in two adds one
        m = sum(blocks)
        u = random_unitary(np.random.default_rng(m), m)
        units = []
        for off, b in zip(np.cumsum((0,) + blocks[:-1]), blocks):
            for i in range(off, off + b):
                for j in range(off, off + b):
                    units.append(np.outer(u[:, i], u[:, j].conj()))
        stack = np.stack(units)
        full = OperatorAlgebra(dim=m, basis=stack, contains_identity=True)
        assert full_basis_commutant(full, seed).algebra_dim == len(blocks)
        assert _pair_commutant(stack, seed, (204,))[1].algebra_dim == len(blocks)


class TestPairCommutantEquals:
    """``_pair_commutant_equals`` decides ``T' = span E`` for a pair drawn from ``A``.

    ``E`` is an HS-orthonormal stack in ``A'``: the verdict needs ``dim T' ==
    len(E)`` and every member of ``E`` commuting with the pair to
    ``SPAN_TOL``, and a stack of ``n^2`` members is decided without a
    commutator.
    """

    PATTERNS = ([(2, 2), (1, 3)], [(3, 1), (1, 2)], [(2, 3)], [(1, 1), (2, 2), (1, 2)])

    @classmethod
    def planted(cls, seed):
        """``(pattern, A, E)``: a planted algebra and its own commutant's orthonormal basis."""
        for k, pattern in enumerate(cls.PATTERNS):
            gens, _ = planted_block_algebra(np.random.default_rng(80 + k), pattern)
            s = operator_set(gens)
            yield pattern, generated_algebra(s, seed), commutant(s, seed).basis

    def test_the_algebras_own_commutant_passes(self, seed):
        for pattern, a, e in self.planted(seed):
            t_cp, ratio, holds = _pair_commutant_equals(a.basis, seed, (105,), e)
            assert holds and t_cp.algebra_dim == len(e) == sum(d * d for d, _ in pattern)
            assert ratio <= SPAN_TOL, pattern

    def test_a_member_turned_out_fails_on_the_ratio(self, seed):
        # the dimensions still agree, so only the commutation test sees it
        for pattern, a, e in self.planted(seed):
            for angle, faulty in TestGenericPairCrossChecks.rotated_out(e, seed, (1e-6, 1e-3)):
                t_cp, ratio, holds = _pair_commutant_equals(a.basis, seed, (105,), faulty)
                assert t_cp.algebra_dim == len(faulty)
                assert not holds and ratio > SPAN_TOL, (pattern, angle)

    def test_a_missing_member_fails_on_the_dimension(self, seed):
        # the members left still commute with the pair
        for pattern, a, e in self.planted(seed):
            t_cp, ratio, holds = _pair_commutant_equals(a.basis, seed, (105,), e[1:])
            assert not holds and t_cp.algebra_dim == len(e)
            assert ratio <= SPAN_TOL, pattern

    @staticmethod
    def forbid_commutators_after_the_pair(monkeypatch):
        """Make ``_verify_commutes`` raise once the pair's commutant has been taken."""
        real = opalgebra._pair_commutant

        def forbidden(*args):
            raise AssertionError("a commutator was formed for a stack spanning M_n")

        def pair_commutant(*args):
            out = real(*args)
            monkeypatch.setattr(opalgebra, "_verify_commutes", forbidden)
            return out

        monkeypatch.setattr(opalgebra, "_pair_commutant", pair_commutant)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_a_stack_spanning_the_matrix_algebra_forms_no_commutator(self, seed, n,
                                                                     monkeypatch):
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        self.forbid_commutators_after_the_pair(monkeypatch)
        t_cp, ratio, holds = _pair_commutant_equals(np.eye(n, dtype=complex)[None], seed,
                                                    (105,), units)
        assert holds and ratio == 0.0 and t_cp.algebra_dim == n * n

    def test_a_stack_spanning_the_matrix_algebra_can_fail_on_the_dimension(self, seed,
                                                                           monkeypatch):
        pattern, a, _ = next(self.planted(seed))
        n = a.dim
        self.forbid_commutators_after_the_pair(monkeypatch)
        t_cp, ratio, holds = _pair_commutant_equals(
            a.basis, seed, (105,), np.eye(n * n, dtype=complex).reshape(n * n, n, n))
        assert not holds and ratio == 0.0
        assert t_cp.algebra_dim == sum(d * d for d, _ in pattern)


# ``_pair_commutant`` faults: the pair is drawn from a proper subalgebra of
# the algebra it should generate.  "scalars": two multiples of the identity,
# whose commutant is the whole matrix algebra.  "one element": two multiples
# of one generic Hermitian element h, which generate the abelian C*(h).
PAIR_FAULTS = {
    "scalars": lambda members, seed, salt: np.eye(members.shape[-1], dtype=complex)[None],
    "one element": lambda members, seed, salt: _generic_hermitian_combo(
        members, np.random.default_rng([seed, *salt]))[None],
}


def plant_pair_fault(monkeypatch, module, fault, salt):
    """Draw the pair at ``salt`` from the subalgebra ``PAIR_FAULTS[fault]`` picks."""
    real = module._pair_commutant

    def pair_commutant(members, seed, s):
        if s == salt:
            members = PAIR_FAULTS[fault](members, seed, s)
        return real(members, seed, s)

    monkeypatch.setattr(module, "_pair_commutant", pair_commutant)


class TestPairDoubleCommutant:
    """S'' = O' and the decomposition's default commutant are taken of a seeded generic pair.

    The reference is the commutant of the algebra's whole basis.  A pair
    that generates less than the algebra has too large a commutant; the word
    closure must then raise :class:`ClosureMismatch`, and the decomposition
    a typed error, never a wrong multiset.
    """

    # the planted patterns of the CLI's n = 40 and 56 items, drawn as it draws them
    LARGE = ([(1, 20), (2, 10)], [(1, 8), (2, 8), (4, 4)], [(3, 6), (2, 11)],
             [(1, 28), (2, 14)], [(1, 10), (2, 9), (3, 6), (1, 10)], [(4, 7), (2, 14)],
             [(10, 1), (14, 1), (16, 1), (16, 1)])

    @staticmethod
    def inputs(workloads, which):
        """``(pattern, seed, S)`` of every sweep, wide or large pattern."""
        if which == "large":
            for pattern in TestPairDoubleCommutant.LARGE:
                gens, _ = planted_block_algebra(np.random.default_rng(5), pattern)
                yield pattern, 0, gens
            return
        patterns = (sorted(set(workloads.sweep_pattern_quota(200))) if which == "sweep"
                    else workloads.WIDE_PATTERNS)
        for k, pattern in enumerate(patterns):
            gens, _ = planted_block_algebra(np.random.default_rng(k), list(pattern))
            yield pattern, k, gens

    @pytest.mark.parametrize("which", ["sweep", "wide", "large"])
    def test_pair_equals_the_full_basis_commutant(self, workloads, which):
        for pattern, seed, gens in self.inputs(workloads, which):
            s = operator_set(gens)
            obs = commutant(s, seed)
            gen = generated_algebra(s, seed, commutant_algebra=obs)
            assert gen.algebra_dim == sum(nt * nt for _, nt in pattern), pattern
            assert span_equal(gen, full_basis_commutant(obs, seed)), pattern

    @pytest.mark.parametrize("fault", PAIR_FAULTS)
    def test_pair_generating_less_fails_the_word_closure(self, workloads, monkeypatch, fault):
        cases = 0
        for pattern, seed, gens in self.inputs(workloads, "sweep"):
            # the pair is drawn from O = S', the sum of the M_d
            if fault == "one element" and all(d == 1 for d, _ in pattern):
                continue  # O is abelian, and one generic element generates it
            if fault == "scalars" and len(pattern) == 1 and pattern[0][0] == 1:
                continue  # S'' is the whole matrix algebra
            s = operator_set(gens)
            obs = commutant(s, seed)
            with monkeypatch.context() as m:
                plant_pair_fault(m, opalgebra, fault, (107,))
                with pytest.raises(ClosureMismatch):
                    generated_algebra(s, seed, commutant_algebra=obs)
            cases += 1
        assert cases >= 15

    @pytest.mark.parametrize("fault", PAIR_FAULTS)
    def test_pair_generating_less_fails_the_decomposition(self, workloads, monkeypatch, fault):
        cases = 0
        for pattern, seed, gens in self.inputs(workloads, "sweep"):
            # the pair is drawn from S'' = the sum of the 1_d (x) M_ntilde
            if fault == "one element" and all(nt == 1 for _, nt in pattern):
                continue
            if fault == "scalars" and len(pattern) == 1 and pattern[0][1] == 1:
                continue  # S'' is the scalars, with the whole matrix algebra as commutant
            o = generated_algebra(operator_set(gens), seed)
            assert central_decomposition(o, seed).multiset() == tuple(sorted(pattern))
            with monkeypatch.context() as m:
                plant_pair_fault(m, sectors, fault, (206,))
                with pytest.raises(SuperselectError):
                    central_decomposition(o, seed)
            cases += 1
        assert cases >= 15


class TestPlantedStructure:
    def test_dimension_accounting(self):
        # small preview of the acceptance sweep
        rng = np.random.default_rng(61)
        for trial in range(20):
            pattern = sample_pattern(rng)
            gens, _ = planted_block_algebra(rng, pattern)
            n = gens[0].shape[0]
            s = operator_set(gens)
            o = generated_algebra(s, trial)
            cp = commutant(s, trial)
            dec = central_decomposition(o, trial)
            assert sorted((sec.d, sec.ntilde) for sec in dec.sectors) == sorted(pattern)
            assert sum(sec.d * sec.ntilde for sec in dec.sectors) == n
            assert o.algebra_dim == sum(t * t for _, t in pattern)
            assert cp.algebra_dim == sum(d * d for d, _ in pattern)
