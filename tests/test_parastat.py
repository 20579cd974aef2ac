import itertools

import numpy as np
import pytest

from conftest import (
    full_basis_commutant,
    sector_oracle_multiset,
    validate_algebra,
    vector_functional,
)
from superselect import opalgebra, sectors
from superselect.errors import NonIntegerRank, PostconditionFailure, SizeLimit
from superselect.opalgebra import (
    algebra_from_span,
    commutant,
    is_abelian,
    operator_set,
    span_equal,
    span_residual,
)
from superselect.numkernel import SPAN_TOL
from superselect.parastat import (
    CHARACTER_TABLES,
    TensorRep,
    character_oracle,
    cycle_type,
    decomposition_for,
    invariant_algebra,
    parastat_truncation,
)
from superselect.sectors import truncate

ALL_CASES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]


def compose(g, h):
    """The image tuple of the permutation ``x -> g(h(x))``."""
    return tuple(g[i] for i in h)


class TestPermutation:
    def test_cycle_type(self):
        assert cycle_type((1, 0, 2)) == (2, 1)
        assert cycle_type((1, 2, 0)) == (3,)
        assert cycle_type((0, 1, 2)) == (1, 1, 1)


class TestCharacterTables:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthogonality_relations(self, n):
        classes = [cycle_type(g) for g in itertools.permutations(range(n))]
        table = CHARACTER_TABLES[n]
        for i, (_, di, chi_i) in enumerate(table):
            assert chi_i[tuple([1] * n)] == di  # dimension at the identity class
            for j, (_, dj, chi_j) in enumerate(table):
                inner = sum(chi_i[c] * chi_j[c] for c in classes) / len(classes)
                assert inner == (1 if i == j else 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partitions_lexicographic(self, n):
        parts = [p for p, _, _ in CHARACTER_TABLES[n]]
        assert parts == sorted(parts)
        assert all(sum(p) == n for p in parts)


class TestPermutationUnitaries:
    def test_swap_is_involution(self):
        rep = TensorRep(2, 2)
        u = rep.unitaries[rep.perms.index((1, 0))]
        assert np.allclose(u @ u, np.eye(4))

    def test_unitaries_are_permutation_matrices(self):
        rep = TensorRep(3, 2)
        for u in rep.unitaries:
            assert np.array_equal(np.sort(np.abs(u), axis=0)[-1], np.ones(8))
            assert set(np.unique(u.real)) <= {0.0, 1.0}
            assert np.allclose(u.imag, 0.0)
            assert np.allclose(u @ u.conj().T, np.eye(8))

    def test_proper_representation_all_pairs(self):
        # brute-force composition over all 36 pairs
        rep = TensorRep(3, 2)
        for g, ug in zip(rep.perms, rep.unitaries):
            for h, uh in zip(rep.perms, rep.unitaries):
                assert np.array_equal(ug @ uh, rep.unitaries[rep.perms.index(compose(g, h))])

    @pytest.mark.parametrize("n,d", [(5, 2), (2, 4), (4, 3), (1, 2)])
    def test_size_limits(self, n, d):
        with pytest.raises(SizeLimit):
            TensorRep(n, d)

    def test_takes_only_its_counts(self):
        rep = TensorRep(3, 2)
        with pytest.raises(TypeError):
            TensorRep(3, 2, 8, rep.unitaries)
        with pytest.raises(TypeError):
            TensorRep(3, 2, images=rep.images)

    @pytest.mark.parametrize("n,d", ALL_CASES)
    def test_images_are_the_column_argmax_in_group_order(self, n, d):
        rep = TensorRep(n, d)
        assert rep.perms == tuple(itertools.permutations(range(n)))
        assert rep.images.shape == (len(rep.perms), d ** n) == (len(rep.perms), rep.dim)
        assert rep.unitaries.shape == (len(rep.perms), rep.dim, rep.dim)
        for k, u in enumerate(rep.unitaries):
            assert np.array_equal(rep.images[k], np.argmax(np.abs(u), axis=0))


class TestCharacterOracle:
    def test_three_qubits(self):
        rep = TensorRep(3, 2)
        table = {p: (d, nt) for p, d, nt in character_oracle(rep)}
        assert table[(3,)] == (1, 4)       # symmetric block
        assert table[(2, 1)] == (2, 2)     # mixed block
        assert table[(1, 1, 1)] == (1, 0)  # alternating block absent for d=2
        assert sector_oracle_multiset(rep) == ((1, 4), (2, 2))

    def test_four_qubits(self):
        rep = TensorRep(4, 2)
        table = {p: (d, nt) for p, d, nt in character_oracle(rep)}
        assert table[(4,)] == (1, 5)
        assert table[(3, 1)] == (3, 3)
        assert table[(2, 2)] == (2, 1)
        assert table[(2, 1, 1)] == (3, 0)
        assert table[(1, 1, 1, 1)] == (1, 0)

    def test_two_qubits(self):
        rep = TensorRep(2, 2)
        assert sector_oracle_multiset(rep) == ((1, 1), (1, 3))

    def test_rank_not_a_multiple_of_d_raises(self, monkeypatch):
        # with the 3-cycle character of the (2, 1) irrep set to 0, its
        # projector's trace on (C^2)^3 is (2/6)(2 * 8) = 16/3, so ntilde = 8/3
        table = [(p, d, dict(chars)) for p, d, chars in CHARACTER_TABLES[3]]
        table[1][2][(3,)] = 0
        monkeypatch.setitem(CHARACTER_TABLES, 3, table)
        with pytest.raises(NonIntegerRank, match=r"partition \(2, 1\) has rank 5.3333"):
            character_oracle(TensorRep(3, 2))

    @pytest.mark.parametrize("n,d", ALL_CASES)
    def test_dimension_sum(self, n, d):
        rep = TensorRep(n, d)
        assert sum(dd * nt for _, dd, nt in character_oracle(rep)) == d ** n

    @pytest.mark.parametrize("n,d", ALL_CASES)
    def test_trace_formula_matches_explicit_projectors(self, n, d):
        # the oracle reads each rank from traces; here the character projectors
        # are formed and their ranks taken numerically
        rep = TensorRep(n, d)
        classes = [cycle_type(g) for g in rep.perms]
        expected = []
        for partition, dim_i, chars in CHARACTER_TABLES[n]:
            proj = sum(chars[c] * u for c, u in zip(classes, rep.unitaries))
            proj = (dim_i / len(classes)) * proj
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-12, partition
            rank = np.linalg.matrix_rank(proj, tol=1e-8)
            assert rank % dim_i == 0, partition
            expected.append((partition, dim_i, rank // dim_i))
        assert character_oracle(rep) == expected

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2)])
    def test_projectors_commute_with_observables(self, n, d):
        rep = TensorRep(n, d)
        o = invariant_algebra(rep)
        classes = [cycle_type(g) for g in rep.perms]
        for partition, dim_i, chars in CHARACTER_TABLES[n]:
            proj = sum(chars[c] * u for c, u in zip(classes, rep.unitaries))
            proj = (dim_i / len(classes)) * proj
            worst = max(np.linalg.norm(b @ proj - proj @ b) for b in o.basis)
            assert worst <= 1e-9, partition


class TestInvariantAlgebra:
    @pytest.mark.parametrize("n,d", ALL_CASES)
    def test_orbit_basis_is_an_exactly_orthonormal_algebra(self, n, d):
        o = invariant_algebra(TensorRep(n, d))
        validate_algebra(o)
        vecs = o.basis.reshape(o.algebra_dim, -1)
        assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(o.algebra_dim))) <= 1e-14

    @pytest.mark.parametrize("n,d", ALL_CASES)
    def test_orbit_basis_spans_the_solved_commutant(self, n, d, seed):
        # the numerical commutant of the group unitaries is the reference
        rep = TensorRep(n, d)
        solved = commutant(operator_set(rep.unitaries), seed)
        assert span_equal(invariant_algebra(rep), solved)

    @pytest.mark.parametrize("n,d,expect", [
        (2, 2, 10), (3, 2, 20), (2, 3, 45), (4, 2, 35), (3, 3, 165),
    ])
    def test_dimension_is_the_oracle_sum_of_squares(self, n, d, expect):
        rep = TensorRep(n, d)
        assert sum(nt * nt for _, _, nt in character_oracle(rep)) == expect
        assert invariant_algebra(rep).algebra_dim == expect

    def test_solves_no_commutant(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("invariant_algebra solved for what it writes down")

        for mod, name in [(opalgebra, "commutant"), (np.linalg, "svd"), (np.linalg, "eigh"),
                          (np.linalg, "eigvalsh")]:
            monkeypatch.setattr(mod, name, forbidden)
        invariant_algebra(TensorRep(3, 3))

    def test_two_qubit_dimensions(self, seed):
        rep = TensorRep(2, 2)
        o = invariant_algebra(rep)
        assert o.algebra_dim == 10  # 3^2 + 1^2
        cp = full_basis_commutant(o, seed)
        abelian, _ = is_abelian(cp)
        assert abelian  # S2 is abelian: compatibility holds untruncated

    def test_three_qubit_dimensions(self, seed):
        rep = TensorRep(3, 2)
        o = invariant_algebra(rep)
        assert o.algebra_dim == 20  # 4^2 + 2^2
        cp = full_basis_commutant(o, seed)
        assert cp.algebra_dim == 5  # 1^2 + 2^2
        abelian, resid = is_abelian(cp)
        assert not abelian and resid > 0.01
        # the group unitaries live inside the commutant
        for u in rep.unitaries:
            assert span_residual(cp.basis, u) <= 1e-9

    @pytest.mark.parametrize("n,d", ALL_CASES)
    def test_commutant_is_the_group_span(self, n, d, seed):
        # the decomposition takes O' as the span of the unitaries; the full
        # solve must agree with it
        rep = TensorRep(n, d)
        solved = full_basis_commutant(invariant_algebra(rep), seed)
        group_span = algebra_from_span(rep.unitaries)
        assert span_equal(solved, group_span)


class TestTruncation:
    SECTOR_TABLES = {  # (n, d) -> sorted (d_i, ntilde_i) of the present blocks
        (2, 2): [(1, 1), (1, 3)],
        (2, 3): [(1, 3), (1, 6)],
        (3, 2): [(1, 4), (2, 2)],
        (3, 3): [(1, 1), (1, 10), (2, 8)],
        (4, 2): [(1, 5), (2, 1), (3, 3)],
    }

    @pytest.mark.parametrize("n,d,expect_dim,expect_sectors", [
        (2, 2, 4, 2), (2, 3, 9, 2), (3, 2, 6, 2), (4, 2, 9, 3), (3, 3, 19, 3),
    ])
    def test_case_study(self, n, d, expect_dim, expect_sectors, seed):
        rep = TensorRep(n, d)
        result = parastat_truncation(rep, seed)
        assert result["sector_table"] == self.SECTOR_TABLES[(n, d)]
        assert result["dim_truncated"] == expect_dim
        assert result["post_truncation_v2"]
        assert result["post_truncation_commutant_dim"] == expect_sectors
        assert result["oracle_agrees"]
        assert result["pre_truncation_abelian"] == (n == 2)

    @pytest.mark.parametrize("n,d", ALL_CASES)
    def test_closed_form_basis(self, n, d, seed):
        # the truncated basis is written down as an HS isometry's image; an
        # orthonormalised span of V* B_i V is the reference
        dec = decomposition_for(TensorRep(n, d), seed)
        v, o_t, _ = truncate(dec, seed)
        validate_algebra(o_t)
        assert span_equal(o_t, algebra_from_span(v.conj().T @ dec.algebra.basis @ v))

    def test_truncation_neither_orthonormalises_nor_decomposes(self, seed, monkeypatch):
        dec = decomposition_for(TensorRep(3, 3), seed)

        def forbidden(*args, **kwargs):
            raise AssertionError("truncate orthonormalised a span or decomposed again")

        for mod, name in [(opalgebra, "_orthonormalize_stack"),
                          (opalgebra, "algebra_from_span"),
                          (sectors, "central_decomposition")]:
            monkeypatch.setattr(mod, name, forbidden)
        truncate(dec, seed)

    def test_both_copies_kept_raises(self, seed, monkeypatch):
        # V keeps both multiplicity copies of the d = 2 block of (C^2)^3: still
        # an isometry, but not one copy, so the check must fail
        dec = decomposition_for(TensorRep(3, 2), seed)
        real = sectors._generic_split

        def both_copies(members, seed, salts, accept):
            w, v, groups = real(members, seed, salts, accept)
            return w, v, [np.concatenate(groups)]

        monkeypatch.setattr(sectors, "_generic_split", both_copies)
        with pytest.raises(PostconditionFailure):
            truncate(dec, seed)

    def test_pair_generating_less_fails_the_verdict(self, seed, monkeypatch):
        # a pair drawn from one basis member generates less than the truncated
        # algebra, so its commutant is too large and the verdict must fail; the
        # check draws through opalgebra._pair_commutant_equals
        dec = decomposition_for(TensorRep(3, 2), seed)
        real = opalgebra._pair_commutant
        monkeypatch.setattr(opalgebra, "_pair_commutant",
                            lambda members, seed, salt, isometry=None:
                            real(members[:1], seed, salt, isometry))
        t_cp, ratio, holds = truncate(dec, seed)[2]
        assert holds is False
        # the sector projectors still commute with the pair; T' is too large
        assert t_cp.algebra_dim > len(dec.sectors) and ratio <= SPAN_TOL

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3)])
    def test_spectral_matches_oracle(self, n, d, seed):
        rep = TensorRep(n, d)
        dec = decomposition_for(rep, seed)
        assert dec.multiset() == sector_oracle_multiset(rep)


class TestNonPureVectors:
    def test_entangled_multiplicity_vector_is_a_strict_mixture(self, seed):
        # in a block with d > 1, a vector entangled across the multiplicity
        # factor defines the same functional as the matching convex mixture
        rep = TensorRep(3, 2)
        o = invariant_algebra(rep)
        dec = decomposition_for(rep, seed)
        sec = next(s for s in dec.sectors if s.d > 1)
        cp = full_basis_commutant(o, seed)
        w_iso = sec.isometry
        restricted = np.einsum("ia,kij,jb->kab", w_iso.conj(), cp.basis, w_iso)
        herm = sum(np.random.default_rng(7).standard_normal() * (r + r.conj().T)
                   for r in restricted)
        evals, evecs = np.linalg.eigh(herm)
        groups = [evecs[:, :sec.ntilde], evecs[:, sec.ntilde:]]  # the two copies
        rng = np.random.default_rng(11)
        c1 = w_iso @ (groups[0] @ rng.standard_normal(sec.ntilde))
        c2 = w_iso @ (groups[1] @ rng.standard_normal(sec.ntilde))
        c1, c2 = c1 / np.linalg.norm(c1), c2 / np.linalg.norm(c2)
        v = (c1 + c2) / np.sqrt(2)

        f1, f2 = vector_functional(o, c1), vector_functional(o, c2)
        assert np.max(np.abs(vector_functional(o, v) - 0.5 * (f1 + f2))) <= 1e-12
        # strictness: the two components are distinguishable on the observables
        assert np.max(np.abs(f1 - f2)) > 1e-3
