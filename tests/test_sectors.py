import dataclasses

import numpy as np
import pytest

from conftest import (
    fake_separations,
    generic_eigenvalues,
    planted_block_algebra,
    vector_functional,
)
from superselect import opalgebra, sectors
from superselect.diracsets import is_cyclic
from superselect.errors import (
    DegenerateGenericElement,
    DimensionMismatch,
    NonIntegerStructure,
    PostconditionFailure,
)
from superselect.numkernel import SPAN_TOL, random_hermitian, random_unitary
from superselect.opalgebra import (
    _orthonormalize_stack,
    algebra_from_span,
    commutant,
    generated_algebra,
    operator_set,
    span_equal,
)
from superselect.parastat import TensorRep, invariant_algebra
from superselect.sectors import central_decomposition, truncate

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def two_block(seed):
    """Generated algebra of diag(1,1,2): scalars on a 2-block plus a 1-block."""
    o = generated_algebra(operator_set([np.diag([1.0, 1.0, 2.0]).astype(complex)]), seed)
    return o, central_decomposition(o, seed)


@pytest.fixture
def three_sector(seed):
    """Diagonal algebra on C^3: three one-dimensional sectors."""
    o = generated_algebra(operator_set([np.diag([1.0, 2.0, 3.0]).astype(complex)]), seed)
    return o, central_decomposition(o, seed)


class TestCentralDecomposition:
    def test_irreducible_single_sector(self, seed):
        full = commutant(operator_set([np.eye(4)]), seed)
        dec = central_decomposition(full, seed)
        assert len(dec.sectors) == 1
        sec = dec.sectors[0]
        assert (sec.d, sec.ntilde, sec.block_dim) == (1, 4, 4)

    @pytest.mark.parametrize("factor", [np.eye(1), np.eye(2)])
    def test_one_dimensional_center_takes_no_draw(self, seed, monkeypatch, factor):
        # M_3 and 1_2 (x) M_3 are factors: one sector, the whole space, with no
        # generic central element drawn (salts (201, a))
        o = algebra_from_span([np.kron(factor, m) for m in
                               commutant(operator_set([np.eye(3)]), seed).basis])
        salts = []
        real = sectors._generic_split

        def record(members, seed, draws, accept):
            draws = list(draws)
            salts.extend(draws)
            return real(members, seed, draws, accept)

        monkeypatch.setattr(sectors, "_generic_split", record)
        dec = central_decomposition(o, seed)
        d = factor.shape[0]
        assert salts == []
        assert [(s.block_dim, s.d, s.ntilde) for s in dec.sectors] == [(3 * d, d, 3)]
        assert np.allclose(dec.sectors[0].projector, np.eye(3 * d), atol=1e-12)

    def test_two_blocks(self, two_block):
        _, dec = two_block
        assert sorted(s.block_dim for s in dec.sectors) == [1, 2]
        assert dec.multiset() == ((1, 1), (2, 1))

    def test_projector_algebra(self, two_block, three_sector):
        for _, dec in (two_block, three_sector):
            projs = [s.projector for s in dec.sectors]
            assert np.max(np.abs(sum(projs) - np.eye(dec.dim))) <= 1e-10
            for i, p in enumerate(projs):
                for j, q in enumerate(projs):
                    expect = p if i == j else 0.0
                    assert np.max(np.abs(p @ q - expect)) <= 1e-10

    def test_observables_preserve_sectors(self, seed):
        rng = np.random.default_rng(71)
        gens, _ = planted_block_algebra(rng, [(1, 2), (2, 1), (1, 3)])
        o = generated_algebra(operator_set(gens), seed)
        dec = central_decomposition(o, seed)
        for sec in dec.sectors:
            comm = np.einsum("ij,kjl->kil", sec.projector, o.basis) \
                - np.einsum("kij,jl->kil", o.basis, sec.projector)
            assert float(np.max(np.abs(comm))) <= 1e-9

    def test_sectors_in_ascending_central_value(self, seed):
        gens, _ = planted_block_algebra(np.random.default_rng(72), [(1, 2), (2, 1), (1, 1)])
        dec = central_decomposition(generated_algebra(operator_set(gens), seed), seed)
        values = [s.central_value for s in dec.sectors]
        assert len(values) == 3 and values == sorted(set(values))

    def test_merged_clusters_raise_typed_error(self, three_sector, seed, monkeypatch):
        o, _ = three_sector
        monkeypatch.setattr(opalgebra, "cluster_eigenvalues",
                            lambda w: [np.arange(w.size)])
        with pytest.raises(DegenerateGenericElement, match=r"salt \(201, 15\)"):
            central_decomposition(o, seed)

    @staticmethod
    def irreducibility_pairs(monkeypatch, fault=lambda members: members):
        """Record ``(stack shape, pair shape, salt, commutant dim)`` for each d = 1 pair drawn.

        The pair is drawn from the algebra's basis stack and restricted to
        the sum of the d = 1 blocks.  ``fault`` replaces the stack before the
        pair is drawn from it.  The check draws through
        ``opalgebra._pair_commutant_equals``, so the binding patched is
        ``opalgebra._pair_commutant``; only the salt ``(204,)`` is seen.
        """
        seen, real = [], opalgebra._pair_commutant

        def pair_commutant(members, seed, salt, isometry=None):
            if salt != (204,):
                return real(members, seed, salt, isometry)
            out = real(fault(members), seed, salt, isometry)
            seen.append((members.shape, out[0].shape, salt, out[1].algebra_dim))
            return out

        monkeypatch.setattr(opalgebra, "_pair_commutant", pair_commutant)
        return seen

    def test_reducible_d_one_block_raises(self, seed, monkeypatch):
        # M_3 is one sector with d = 1.  The stack its pair is drawn from is
        # swapped for its diagonal part, whose commutant is the diagonal
        # algebra, plus one Hermitian member of norm 1e-17, which adds only
        # roundoff to the generic pair.  The pair still has the diagonal
        # algebra's commutant, and the check says the block is reducible.
        o = commutant(operator_set([np.eye(3)]), seed)
        h = random_hermitian(np.random.default_rng(3), 3)
        noise = 1e-17 * h / np.linalg.norm(h)
        seen = self.irreducibility_pairs(
            monkeypatch, lambda members: np.concatenate([members * np.eye(3), noise[None]]))
        with pytest.raises(PostconditionFailure, match="not irreducible"):
            central_decomposition(o, seed)
        assert seen == [((9, 3, 3), (2, 3, 3), (204,), 3)]

    def test_one_reducible_block_among_two_raises(self, seed, monkeypatch):
        # O = M_1 + M_3 has two d = 1 blocks, checked by one pair drawn from O
        # and restricted to their sum.  Dropping the stack's off-diagonal entries
        # leaves the 1-block as it is and makes the 3-block diagonal, hence
        # reducible: the pair's commutant has 4 dimensions, not 2
        o = commutant(operator_set([np.diag([1.0, 2.0, 2.0, 2.0])]), seed)
        assert central_decomposition(o, seed).multiset() == ((1, 1), (1, 3))
        seen = self.irreducibility_pairs(monkeypatch, lambda members: members * np.eye(4))
        with pytest.raises(PostconditionFailure, match="not irreducible"):
            central_decomposition(o, seed)
        assert seen == [((10, 4, 4), (2, 4, 4), (204,), 4)]

    def test_d_one_blocks_turned_away_fail_on_membership(self, seed, monkeypatch):
        # O = M_1 + M_3 again, with the stack conjugated by a random unitary of
        # C^4 before the pair is drawn: its commutant still has one dimension
        # per block, but of other blocks, whose identities do not commute with
        # the pair, so only the membership test sees the fault
        o = commutant(operator_set([np.diag([1.0, 2.0, 2.0, 2.0])]), seed)
        u = random_unitary(np.random.default_rng(4), 4)
        seen = self.irreducibility_pairs(monkeypatch, lambda members: u @ members @ u.conj().T)
        with pytest.raises(PostconditionFailure, match="not irreducible"):
            central_decomposition(o, seed)
        assert seen == [((10, 4, 4), (2, 4, 4), (204,), 2)]

    def test_d_one_blocks_take_one_pair(self, seed, monkeypatch):
        # two d = 1 blocks beside a d = 2 block: one pair, drawn from the
        # algebra and restricted to the sum of the d = 1 blocks, whose
        # commutant has one dimension per block
        gens, _ = planted_block_algebra(np.random.default_rng(74), [(1, 1), (2, 2), (1, 3)])
        o = generated_algebra(operator_set(gens), seed)
        seen = self.irreducibility_pairs(monkeypatch)
        assert central_decomposition(o, seed).multiset() == ((1, 1), (1, 3), (2, 2))
        assert seen == [((1 + 4 + 9, 8, 8), (2, 4, 4), (204,), 2)]

    def test_commutant_too_small_for_the_block_raises(self, seed):
        # O = 1_2 (x) M_2 passed with the scalars as its commutant: the one
        # sector reads ntilde = 2 and d = 1, which do not fill its 4 dimensions
        o = generated_algebra(operator_set([np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)]),
                              seed)
        with pytest.raises(NonIntegerStructure,
                           match=r"block of dimension 4 resolved to d=1, ntilde=2"):
            central_decomposition(o, seed, commutant_algebra=algebra_from_span([np.eye(4)]))

    def test_requires_identity(self, seed):
        from superselect.opalgebra import OperatorAlgebra
        bogus = OperatorAlgebra(dim=2, basis=SX[None] / np.sqrt(2),
                                contains_identity=False)
        with pytest.raises(ValueError):
            central_decomposition(bogus, seed)


def rank_read_pair(dec, sec):
    """Reference (d, ntilde): the numerical ranks of the orthonormalised restricted spans.

    Orthonormalise ``W^* B W`` over the commutant's and the algebra's bases
    by SVD and take integer square roots of the ranks: a rank decision per
    span, independent of the projector traces the decomposition reads.
    """
    w = sec.isometry
    ranks = [_orthonormalize_stack(w.conj().T @ alg.basis @ w).shape[0]
             for alg in (dec.commutant, dec.algebra)]
    roots = [int(round(np.sqrt(r))) for r in ranks]
    assert [x * x for x in roots] == ranks
    return tuple(roots)


class TestTraceReadMultiplicities:
    """Per-sector (d, ntilde) from projector traces agree with the rank reading."""

    @pytest.mark.parametrize("pattern", [
        [(1, 3), (2, 2)],            # a d = 1 and a d > 1 block
        [(3, 2), (1, 1)],
        [(1, 2), (2, 1), (1, 3)],    # three sectors
        [(2, 3), (3, 2), (1, 4)],
    ])
    def test_planted(self, seed, pattern):
        gens, _ = planted_block_algebra(np.random.default_rng(91), pattern)
        dec = central_decomposition(generated_algebra(operator_set(gens), seed), seed)
        assert dec.multiset() == tuple(sorted(pattern))
        self.check(dec)

    @pytest.mark.parametrize("n, d", [(3, 2), (4, 2)])
    def test_parastat(self, seed, n, d):
        dec = central_decomposition(invariant_algebra(TensorRep(n, d)), seed)
        assert any(s.d == 1 for s in dec.sectors) and any(s.d > 1 for s in dec.sectors)
        self.check(dec)

    @staticmethod
    def check(dec):
        for sec in dec.sectors:
            assert (sec.d, sec.ntilde) == rank_read_pair(dec, sec)
        assert sum(s.ntilde ** 2 for s in dec.sectors) == dec.algebra.algebra_dim
        assert sum(s.d ** 2 for s in dec.sectors) == dec.commutant.algebra_dim


class TestSeparationPolicy:
    """The centre's and ``truncate``'s draws keep a well separated split if one comes.

    Through ``_generic_split``, the first accepted draw whose clusters lie
    ``SEED_SEPARATION`` apart is kept, or else the best separated accepted
    one.  The draws' separations are faked (``fake_separations``), and the
    kept split is recognised by its eigenvalues.
    """

    CASES = [
        ({0: 1e-5}, 1),                                           # the next draw is kept
        ({a: 1e-4 if a == 11 else 1e-6 for a in range(16)}, 11),  # the best of all 16
    ]

    @staticmethod
    def kept_splits(monkeypatch):
        kept, real = [], sectors._generic_split
        monkeypatch.setattr(sectors, "_generic_split",
                            lambda *args: kept.append(real(*args)) or kept[-1])
        return kept

    @pytest.mark.parametrize("fakes, kept_draw", CASES)
    def test_center(self, three_sector, seed, monkeypatch, fakes, kept_draw):
        o, dec = three_sector
        z = dec.center.basis
        fake_separations(monkeypatch, z, seed, {(201, a): sep for a, sep in fakes.items()})
        kept = self.kept_splits(monkeypatch)
        again = central_decomposition(o, seed, commutant_algebra=dec.commutant)
        assert again.multiset() == dec.multiset()
        assert np.array_equal(kept[0][0], generic_eigenvalues(z, seed, (201, kept_draw)))

    @pytest.mark.parametrize("fakes, kept_draw", CASES)
    def test_truncate(self, seed, monkeypatch, fakes, kept_draw):
        # 1_2 (x) M_2: one sector with d = 2, whose copy is drawn from W* O' W
        o = generated_algebra(
            operator_set([np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)]), seed)
        dec = central_decomposition(o, seed)
        w = dec.sectors[0].isometry
        restricted_cp = w.conj().T @ dec.commutant.basis @ w
        fake_separations(monkeypatch, restricted_cp, seed,
                         {(202, 0, a): sep for a, sep in fakes.items()})
        kept = self.kept_splits(monkeypatch)
        v, o_t, _ = truncate(dec, seed)
        assert v.shape == (4, 2) and o_t.algebra_dim == 4
        assert np.array_equal(kept[0][0],
                              generic_eigenvalues(restricted_cp, seed, (202, 0, kept_draw)))


class TestProjectorCentrality:
    def test_leaky_projector_raises_typed_error(self, three_sector, seed, monkeypatch):
        # mix the eigenvectors of the first two sectors by a 1e-6 rotation: the
        # isometries stay orthonormal, but their projectors are no longer
        # central, and each leaks about 1e-6 of a basis element
        o, _ = three_sector
        real = sectors._generic_split

        def leaky(*args, **kwargs):
            w, v, groups = real(*args, **kwargs)
            a, b = int(groups[0][-1]), int(groups[1][0])
            c, s = np.cos(1e-6), np.sin(1e-6)
            v = v.copy()
            v[:, [a, b]] = v[:, [a, b]] @ np.array([[c, -s], [s, c]])
            return w, v, groups

        monkeypatch.setattr(sectors, "_generic_split", leaky)
        with pytest.raises(NonIntegerStructure,
                           match=r"sector 0 .* not central: its projector leaks 1\.\d+e-06 "
                                 r".* above 1e-09"):
            central_decomposition(o, seed)


def sector_weights(dec, phi):
    """``||P_s phi||^2 / ||phi||^2`` for each sector, in the decomposition's order."""
    v = np.asarray(phi, dtype=complex)
    return np.array([np.linalg.norm(sec.projector @ v) ** 2
                     for sec in dec.sectors]) / np.vdot(v, v).real


class TestExtremalDecomposition:
    """A vector state splits over the sectors with weights ``||P_s phi||^2 / ||phi||^2``."""

    def test_single_sector(self, two_block):
        _, dec = two_block
        assert np.allclose(sorted(sector_weights(dec, [1.0, 1.0, 0.0])), [0.0, 1.0],
                           atol=1e-12)

    def test_equal_superposition(self, two_block):
        _, dec = two_block
        assert sorted(np.round(sector_weights(dec, [1.0, 0.0, 1.0]), 12)) == [0.5, 0.5]

    def test_one_two_two(self, three_sector):
        _, dec = three_sector
        lams = sorted(sector_weights(dec, [1.0, 2.0, 2.0]))
        assert np.allclose(lams, [1 / 9, 4 / 9, 4 / 9], atol=1e-12)
        assert abs(sum(lams) - 1.0) <= 1e-10

    def test_projection_idempotence(self, three_sector):
        _, dec = three_sector
        phi = np.array([0.3, -0.7, 0.2], dtype=complex)
        for j, sec in enumerate(dec.sectors):
            assert np.allclose(sector_weights(dec, sec.projector @ phi), np.eye(len(dec.sectors))[j],
                               atol=1e-12)


class TestExpectationFunctional:
    """Vector states read as tr(rho B) on an algebra's basis; sector weights ||P_s phi||^2."""

    def test_convex_combination_identity(self, two_block):
        o, dec = two_block
        rng = np.random.default_rng(73)
        for _ in range(100):
            phi1 = np.zeros(3, dtype=complex)
            phi1[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phi2 = np.zeros(3, dtype=complex)
            phi2[2] = rng.standard_normal() + 1j * rng.standard_normal()
            phi = phi1 + phi2
            lam1 = np.linalg.norm(phi1) ** 2 / np.linalg.norm(phi) ** 2
            lam2 = np.linalg.norm(phi2) ** 2 / np.linalg.norm(phi) ** 2
            lhs = vector_functional(o, phi)
            rhs = lam1 * vector_functional(o, phi1) + lam2 * vector_functional(o, phi2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_pure_state_is_not_a_mixture(self, seed):
        # inside an irreducible sector a vector state differs from any proper
        # mixture of two distinct pure states on at least one basis element
        full = commutant(operator_set([np.eye(3)]), seed)
        rng = np.random.default_rng(79)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = vector_functional(full, phi)
        for lam in (0.3, 0.5, 0.7):
            mix = lam * vector_functional(full, psi1) + (1 - lam) * vector_functional(full, psi2)
            assert np.max(np.abs(f - mix)) > 1e-6

    def test_weights_invariant_across_seeds(self):
        rng = np.random.default_rng(83)
        gens, _ = planted_block_algebra(rng, [(1, 2), (1, 1), (2, 1)])
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        reference = None
        for seed in range(10):
            o = generated_algebra(operator_set(gens), seed)
            dec = central_decomposition(o, seed)
            lams = sorted(sector_weights(dec, phi))
            if reference is None:
                reference = lams
            assert np.allclose(lams, reference, atol=1e-12)


class TestTruncate:
    def test_irreducible_is_untouched(self, seed):
        full = commutant(operator_set([np.eye(3)]), seed)
        dec = central_decomposition(full, seed)
        v, o_t, _ = truncate(dec, seed)
        assert v.shape == (3, 3)
        assert span_equal(full, o_t)

    def test_multiplicity_two_drops_half(self, seed):
        o = generated_algebra(
            operator_set([np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)]), seed)
        dec = central_decomposition(o, seed)
        v, o_t, _ = truncate(dec, seed)
        assert v.shape == (4, 2)
        assert o_t.algebra_dim == 4  # full M2 after dropping the copy
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-10

    def test_rank_of_projected_sectors(self, seed):
        rng = np.random.default_rng(89)
        gens, _ = planted_block_algebra(rng, [(2, 2), (1, 3)])
        o = generated_algebra(operator_set(gens), seed)
        dec = central_decomposition(o, seed)
        v, _, _ = truncate(dec, seed)
        for sec in dec.sectors:
            m = v.conj().T @ sec.projector @ v
            rank = int(np.sum(np.linalg.eigvalsh(m) > 1e-8))
            assert rank == sec.ntilde

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_projectors_outside_the_pair_commutant_fail_the_verdict(self, seed, eps):
        # O = M_2 + M_3: the first sector's projector gains eps (|a><b| + |b><a|),
        # a in its block and b in the other.  The truncated algebra and T' do
        # not see it, T' stays abelian with one dimension per sector, and only
        # its projectors' commutators with the pair show that they leave T'
        gens, _ = planted_block_algebra(np.random.default_rng(17), [(1, 2), (1, 3)])
        o = generated_algebra(operator_set(gens), seed)
        dec = central_decomposition(o, seed)
        first, second = dec.sectors
        a, b = first.isometry[:, 0], second.isometry[:, 0]
        moved = first.projector + eps * (np.outer(a, b.conj()) + np.outer(b, a.conj()))
        faulty = dataclasses.replace(
            dec, sectors=(dataclasses.replace(first, projector=moved), second))
        t_cp, _, holds = truncate(dec, seed)[2]
        assert holds and t_cp.algebra_dim == 2
        t_cp, ratio, holds = truncate(faulty, seed)[2]
        assert holds is False
        assert t_cp.algebra_dim == 2 and ratio > SPAN_TOL

    def test_pairwise_scan_contradicting_the_verdict_raises(self, seed, monkeypatch):
        # the verdict holds, so a scan of T' that finds non-commuting pairs is a fault
        o = generated_algebra(
            operator_set([np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)]), seed)
        dec = central_decomposition(o, seed)
        monkeypatch.setattr(sectors, "is_abelian", lambda a: (False, 1.0))
        with pytest.raises(PostconditionFailure, match="do not commute.*tolerance pathology"):
            truncate(dec, seed)

    def test_overlapping_copies_raise(self, two_block, seed):
        # both sectors name the same block, so the stacked copies overlap
        _, dec = two_block
        first = dec.sectors[0]
        with pytest.raises(PostconditionFailure,
                           match="stacked truncation isometry is not isometric"):
            truncate(dataclasses.replace(dec, sectors=(first, first)), seed)

    def test_algebra_missing_a_basis_element_raises(self, seed):
        # O = 1_2 (x) M_2 with the basis element of largest trace dropped: the
        # rest is still HS-orthonormal, but no longer holds the identity
        o = generated_algebra(
            operator_set([np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)]), seed)
        dec = central_decomposition(o, seed)
        drop = np.argmax(np.abs(np.trace(o.basis, axis1=1, axis2=2)))
        less = dataclasses.replace(o, basis=np.delete(o.basis, drop, axis=0))
        with pytest.raises(PostconditionFailure,
                           match="identity not in the truncated algebra's span"):
            truncate(dataclasses.replace(dec, algebra=less), seed)

    def test_merged_clusters_raise_typed_error(self, seed, monkeypatch):
        o = generated_algebra(
            operator_set([np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)]), seed)
        dec = central_decomposition(o, seed)
        monkeypatch.setattr(opalgebra, "cluster_eigenvalues",
                            lambda w: [np.arange(w.size)])
        with pytest.raises(DegenerateGenericElement, match=r"salt \(202, 0, 15\)"):
            truncate(dec, seed)


class TestInputSizes:
    """Mis-sized library input raises a typed error that names the expected size."""

    @pytest.mark.parametrize("call, error, match", [
        (lambda o, dec: algebra_from_span([]), ValueError, "at least one matrix"),
        (lambda o, dec: is_cyclic(np.ones(4), o), DimensionMismatch, "expected .* 3"),
    ], ids=["algebra_from_span", "is_cyclic"])
    def test_raises_typed_error(self, three_sector, call, error, match):
        o, dec = three_sector
        with pytest.raises(error, match=match):
            call(o, dec)
