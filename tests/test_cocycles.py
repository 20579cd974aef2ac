import numpy as np
import pytest

from superselect.bargmann import GalileiElement, bargmann_exponent, galilei_multiply
from superselect.cocycles import (
    BUILTIN_GROUPS,
    MultiplierTable,
    antisym_obstruction,
    check_cocycle,
    coboundary,
    coboundary_solve,
    cyclic_group,
    extension_identity,
    extension_inverse,
    extension_product,
    finite_group,
    klein_four_group,
    lift_check,
    pauli_multiplier,
    pauli_projective_rep,
    symmetric_group_s3,
    zero_multiplier,
)
from superselect.errors import NonCommutingPair, NotACocycle, NotARayRep, Unsupported


def random_gamma(group, rng):
    g = rng.standard_normal(group.order)
    g[group.identity] = 0.0
    return g


def lstsq_gamma(group, omega):
    """Reference solve of omega = delta(gamma), gamma(1) = 0, by least squares.

    One row per pair (g1, g2) of the design matrix of delta, with the
    identity's column deleted as the gauge.
    """
    n = group.order
    rows = np.arange(n * n)
    g1, g2 = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    a = np.zeros((n * n, n))
    np.add.at(a, (rows, g1), 1.0)
    np.add.at(a, (rows, group.table[g1, g2]), -1.0)
    np.add.at(a, (rows, g2), 1.0)
    sol, *_ = np.linalg.lstsq(np.delete(a, group.identity, axis=1), omega.ravel(), rcond=None)
    return np.insert(sol, group.identity, 0.0)


def relabelled_s3():
    """S3 with its elements renumbered so that the identity is not index 0."""
    t = symmetric_group_s3().table
    new = np.array([3, 5, 0, 1, 4, 2])  # element i becomes new[i]
    table = np.empty_like(t)
    table[new[:, None], new[None, :]] = new[t]
    group = finite_group(table)
    assert group.identity == 3
    return group


GROUPS = {**BUILTIN_GROUPS, "S3 relabelled": relabelled_s3}


class TestFiniteGroup:
    def test_builtin_groups_valid(self):
        for name, mk in BUILTIN_GROUPS.items():
            g = mk()
            assert g.table[g.identity, 0] == 0, name
            assert np.all(g.table[g.inverse, np.arange(g.order)] == g.identity), name

    def test_rejects_non_associative(self):
        with pytest.raises(ValueError):
            finite_group([[0, 1], [1, 1]])

    def test_s3_is_nonabelian(self):
        g = symmetric_group_s3()
        assert any(not g.commutes(i, j) for i in range(6) for j in range(6))


class TestCheckCocycle:
    def test_zero_holds(self):
        for mk in BUILTIN_GROUPS.values():
            assert check_cocycle(zero_multiplier(mk()), "strict").holds

    def test_coboundaries_hold_strictly(self):
        rng = np.random.default_rng(2)
        for mk in BUILTIN_GROUPS.values():
            g = mk()
            xi = MultiplierTable(group=g, xi=coboundary(g, random_gamma(g, rng)))
            rep = check_cocycle(xi, "strict")
            assert rep.holds and rep.max_residual <= 1e-12

    def test_pauli_multiplier_strict_vs_mod2pi(self):
        # exhaustive over the 64 triples of the Klein four-group
        pm = pauli_multiplier()
        strict = check_cocycle(pm, "strict")
        assert not strict.holds and abs(strict.max_residual - 2 * np.pi) <= 1e-12
        assert check_cocycle(pm, "mod2pi").holds

    def test_coboundary_of_coboundary_vanishes(self):
        # delta(delta gamma) = 0: the coboundary is always a strict cocycle
        rng = np.random.default_rng(3)
        for mk in BUILTIN_GROUPS.values():
            g = mk()
            for _ in range(100):
                xi = MultiplierTable(group=g, xi=coboundary(g, random_gamma(g, rng)))
                assert check_cocycle(xi, "strict").max_residual <= 1e-12


class TestCoboundarySolve:
    def test_identical_tables_give_zero(self, tol):
        g = cyclic_group(4)
        xi = zero_multiplier(g)
        res = coboundary_solve(xi, xi, tol)
        assert res.equivalent and np.allclose(res.gamma, 0.0, atol=1e-12)

    def test_recovers_planted_gamma_on_z3(self, tol):
        # unique solution: the only homomorphism Z3 -> R is zero
        g = cyclic_group(3)
        gamma0 = np.array([0.0, 0.7, -0.3])
        xi_prime = MultiplierTable(group=g, xi=coboundary(g, gamma0))
        res = coboundary_solve(zero_multiplier(g), xi_prime, tol)
        assert res.equivalent
        assert np.allclose(res.gamma, gamma0, atol=1e-12)
        # substitution cross-check
        assert np.max(np.abs(coboundary(g, res.gamma) - xi_prime.xi)) <= 1e-12

    @pytest.mark.parametrize("name", GROUPS)
    def test_matches_least_squares_reference(self, name, tol):
        # both tables are coboundaries; the unique gamma with gamma(1) = 0
        # (a finite group has no non-zero homomorphism to R) is their difference
        g = GROUPS[name]()
        rng = np.random.default_rng(11)
        beta, gamma0 = random_gamma(g, rng), random_gamma(g, rng)
        xi = MultiplierTable(group=g, xi=coboundary(g, beta))
        xi_prime = MultiplierTable(group=g, xi=coboundary(g, beta + gamma0))
        res = coboundary_solve(xi, xi_prime, tol)
        assert res.equivalent and res.max_residual <= 1e-12
        assert res.gamma[g.identity] == 0.0
        assert np.max(np.abs(res.gamma - lstsq_gamma(g, xi_prime.xi - xi.xi))) <= 1e-12
        assert np.max(np.abs(res.gamma - gamma0)) <= 1e-12

    def test_rejects_non_cocycles(self, tol):
        pm = pauli_multiplier()
        with pytest.raises(NotACocycle):
            coboundary_solve(zero_multiplier(pm.group), pm, tol)

    def test_mod2pi_equivalence_unsupported(self, tol):
        g = cyclic_group(2)
        with pytest.raises(Unsupported):
            coboundary_solve(zero_multiplier(g), zero_multiplier(g), tol, mode="mod2pi")


class TestAntisymObstruction:
    def test_coboundary_is_symmetric_on_commuting_pairs(self):
        g = klein_four_group()  # abelian: every pair commutes
        rng = np.random.default_rng(5)
        gamma = random_gamma(g, rng)
        xi = coboundary(g, gamma)
        pairs = [(i, j) for i in range(4) for j in range(4)]
        val = antisym_obstruction(lambda a, b: xi[a, b], pairs, g.commutes)
        assert val <= 1e-12

    def test_obstruction_invariant_under_coboundary_shift(self):
        g = klein_four_group()
        rng = np.random.default_rng(7)
        pm = pauli_multiplier()
        pairs = [(i, j) for i in range(4) for j in range(4)]
        base = antisym_obstruction(lambda a, b: pm.xi[a, b], pairs, g.commutes)
        for _ in range(20):
            shifted = pm.xi + coboundary(g, random_gamma(g, rng))
            val = antisym_obstruction(lambda a, b: shifted[a, b], pairs, g.commutes)
            assert abs(val - base) <= 1e-12

    def test_bargmann_canonical_pair(self):
        boost = GalileiElement(v=[1.0, 0.0, 0.0])
        shift = GalileiElement(a=[1.0, 0.0, 0.0])

        def commutes(g1, g2):
            ab = galilei_multiply(g1, g2)
            ba = galilei_multiply(g2, g1)
            return (np.allclose(ab.R, ba.R) and np.allclose(ab.v, ba.v)
                    and np.allclose(ab.a, ba.a) and ab.b == ba.b)

        val = antisym_obstruction(lambda x, y: bargmann_exponent(1.0, x, y),
                                  [(boost, shift)], commutes)
        assert abs(val - 1.0) <= 1e-12
        diff = antisym_obstruction(
            lambda x, y: bargmann_exponent(2.0, x, y) - bargmann_exponent(1.0, x, y),
            [(boost, shift)], commutes)
        assert abs(diff - 1.0) <= 1e-12

    def test_rejects_non_commuting_pair(self):
        g = symmetric_group_s3()
        bad = next((i, j) for i in range(6) for j in range(6) if not g.commutes(i, j))
        with pytest.raises(NonCommutingPair):
            antisym_obstruction(lambda a, b: 0.0, [bad], g.commutes)


class TestExtensionProduct:
    def test_central_subgroup(self):
        xi = zero_multiplier(cyclic_group(3))
        e = xi.group.identity
        th, g = extension_product((0.3, e), (0.5, e), xi)
        assert (th, g) == (0.8, e)

    def test_centrality_of_theta_elements(self):
        rng = np.random.default_rng(11)
        g = symmetric_group_s3()
        xi = MultiplierTable(group=g, xi=coboundary(g, random_gamma(g, rng)))
        for k in range(6):
            left = extension_product((0.4, g.identity), (0.0, k), xi)
            right = extension_product((0.0, k), (0.4, g.identity), xi)
            assert left == right == (0.4, k)

    def test_identity_and_inverse(self):
        rng = np.random.default_rng(13)
        g = klein_four_group()
        xi = MultiplierTable(group=g, xi=coboundary(g, random_gamma(g, rng)))
        for k in range(4):
            e = (float(rng.uniform(-2, 2)), k)
            prod = extension_product(e, extension_inverse(e, xi), xi)
            assert prod[1] == g.identity and abs(prod[0]) <= 1e-12
            assert extension_product(extension_identity(xi), e, xi) == e

    def test_associativity_iff_cocycle(self):
        rng = np.random.default_rng(17)
        g = cyclic_group(4)

        def assoc_residual(xi):
            worst = 0.0
            for _ in range(1000):
                th = rng.uniform(-2, 2, 3)
                ks = rng.integers(0, 4, 3)
                e1, e2, e3 = zip(th, ks)
                lhs = extension_product(extension_product(e1, e2, xi), e3, xi)
                rhs = extension_product(e1, extension_product(e2, e3, xi), xi)
                worst = max(worst, abs(lhs[0] - rhs[0]))
            return worst

        good = MultiplierTable(group=g, xi=coboundary(g, random_gamma(g, rng)))
        assert check_cocycle(good, "strict").holds
        assert assoc_residual(good) <= 1e-12

        bad_xi = good.xi.copy()
        bad_xi[1, 2] += 0.1  # planted cocycle violation off the identity row
        bad = MultiplierTable(group=g, xi=bad_xi)
        assert not check_cocycle(bad, "strict").holds
        assert assoc_residual(bad) > 0.05


class TestLiftCheck:
    def test_trivial_multiplier_proper_rep(self, tol):
        g = cyclic_group(3)
        omega = np.exp(2j * np.pi / 3)
        rep = {k: np.array([[omega ** k]]) for k in range(3)}
        out = lift_check(rep, zero_multiplier(g), "strict", tol=tol)
        assert out.holds and out.max_lift_residual <= 1e-12

    def test_pauli_rep_lifts_mod2pi(self, tol):
        out = lift_check(pauli_projective_rep(), pauli_multiplier(), "mod2pi", tol=tol)
        assert out.holds

    def test_pauli_rep_fails_strict_gate(self, tol):
        with pytest.raises(NotACocycle):
            lift_check(pauli_projective_rep(), pauli_multiplier(), "strict", tol=tol)

    def test_perturbed_phases_rejected(self, tol):
        rep = pauli_projective_rep()
        rep[3] = np.exp(1e-3j) * rep[3]
        with pytest.raises(NotARayRep):
            lift_check(rep, pauli_multiplier(), "mod2pi", tol=tol)


class TestDirectSumObstruction:
    def test_equivalent_multipliers_extend_to_the_sum(self, tol):
        # rep1 carries the zero multiplier, rep2 a planted coboundary of it;
        # the solver recovers gamma and the rephased block sum composes with
        # one common multiplier
        g = cyclic_group(3)
        gamma0 = np.array([0.0, 1.1, -0.4])
        xi2 = MultiplierTable(group=g, xi=coboundary(g, gamma0))
        res = coboundary_solve(zero_multiplier(g), xi2, tol)
        assert res.equivalent

        omega = np.exp(2j * np.pi / 3)
        rep1 = {k: np.array([[omega ** k]]) for k in range(3)}
        rep2 = {k: np.exp(1j * gamma0[k]) * np.array([[omega ** (2 * k)]])
                for k in range(3)}
        rephased = {k: np.exp(-1j * res.gamma[k]) * rep2[k] for k in range(3)}
        summed = {k: np.block([[rep1[k], np.zeros((1, 1))],
                               [np.zeros((1, 1)), rephased[k]]]) for k in range(3)}
        worst = max(np.linalg.norm(summed[i] @ summed[j] - summed[g.table[i, j]])
                    for i in range(3) for j in range(3))
        assert worst <= 1e-12  # proper representation: common multiplier zero

    def test_obstructed_multiplier_blocks_the_sum(self, tol):
        # rep1 trivial on C^1, rep2 the Pauli projective rep: the multipliers
        # are not equivalent (the second is not even a strict cocycle) and no
        # single phase can reconcile the block sum
        pm = pauli_multiplier()
        g = pm.group
        with pytest.raises(NotACocycle):
            coboundary_solve(zero_multiplier(g), pm, tol)
        rep2 = pauli_projective_rep()
        worst = 0.0
        for i in range(4):
            for j in range(4):
                # per-block phases demanded by the two ray laws
                phase1 = 1.0  # trivial block composes exactly
                phase2 = np.exp(1j * pm.xi[i, j])
                worst = max(worst, abs(phase1 - phase2))
        assert worst == 2.0  # anticommuting pair forces opposite phases
        # sanity: rep2 really is a ray representation for pm
        assert lift_check(rep2, pm, "mod2pi", tol=tol).holds
