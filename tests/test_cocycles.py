import numpy as np
import pytest

from superselect.cocycles import (
    BUILTIN_GROUPS,
    MultiplierTable,
    check_cocycle,
    coboundary,
    coboundary_solve,
    cyclic_group,
    extension_product,
    finite_group,
    klein_four_group,
    pauli_multiplier,
    symmetric_group_s3,
    zero_multiplier,
)
from superselect.errors import NotACocycle


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
        assert not np.array_equal(g.table, g.table.T)


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
    def test_identical_tables_give_zero(self):
        g = cyclic_group(4)
        xi = zero_multiplier(g)
        res = coboundary_solve(xi, xi)
        assert res.equivalent and np.allclose(res.gamma, 0.0, atol=1e-12)

    def test_recovers_planted_gamma_on_z3(self):
        # unique solution: the only homomorphism Z3 -> R is zero
        g = cyclic_group(3)
        gamma0 = np.array([0.0, 0.7, -0.3])
        xi_prime = MultiplierTable(group=g, xi=coboundary(g, gamma0))
        res = coboundary_solve(zero_multiplier(g), xi_prime)
        assert res.equivalent
        assert np.allclose(res.gamma, gamma0, atol=1e-12)
        # substitution cross-check
        assert np.max(np.abs(coboundary(g, res.gamma) - xi_prime.xi)) <= 1e-12

    @pytest.mark.parametrize("name", GROUPS)
    def test_matches_least_squares_reference(self, name):
        # both tables are coboundaries; the unique gamma with gamma(1) = 0
        # (a finite group has no non-zero homomorphism to R) is their difference
        g = GROUPS[name]()
        rng = np.random.default_rng(11)
        beta, gamma0 = random_gamma(g, rng), random_gamma(g, rng)
        xi = MultiplierTable(group=g, xi=coboundary(g, beta))
        xi_prime = MultiplierTable(group=g, xi=coboundary(g, beta + gamma0))
        res = coboundary_solve(xi, xi_prime)
        assert res.equivalent and res.max_residual <= 1e-12
        assert res.gamma[g.identity] == 0.0
        assert np.max(np.abs(res.gamma - lstsq_gamma(g, xi_prime.xi - xi.xi))) <= 1e-12
        assert np.max(np.abs(res.gamma - gamma0)) <= 1e-12

    def test_inputs_at_the_cocycle_tolerance_stay_equivalent(self):
        # xi = delta(gamma) + e and xi' = delta(gamma) - e, e scaled to a strict
        # residual of 9.5e-11: each passes the cocycle check, and omega = -2e
        # leaves delta(gamma) - omega at 1.41e-10, above COBOUNDARY_TOL but
        # within the inputs' summed residuals (draw 792 of default_rng(0), the
        # worst of 2000)
        g = cyclic_group(4)
        rng = np.random.default_rng(0)
        for _ in range(793):
            gamma = random_gamma(g, rng)
            e = rng.standard_normal((4, 4))
            e[g.identity, :] = e[:, g.identity] = 0.0
        e *= 9.5e-11 / check_cocycle(MultiplierTable(group=g, xi=e)).max_residual
        xi, xi_prime = (MultiplierTable(group=g, xi=coboundary(g, gamma) + s * e) for s in (1, -1))
        residuals = [check_cocycle(m).max_residual for m in (xi, xi_prime)]
        assert all(r <= 1e-10 for r in residuals)
        res = coboundary_solve(xi, xi_prime)
        assert 1.4e-10 < res.max_residual <= sum(residuals) + 1e-10
        assert res.equivalent

    def test_rejects_non_cocycles(self):
        pm = pauli_multiplier()
        with pytest.raises(NotACocycle):
            coboundary_solve(zero_multiplier(pm.group), pm)


class TestAntisymObstruction:
    """Coboundaries are symmetric on commuting pairs.

    So a multiplier's antisymmetric part there is unchanged by a coboundary shift.
    """

    def test_coboundary_is_symmetric_on_commuting_pairs(self):
        g = klein_four_group()  # abelian: every pair commutes
        rng = np.random.default_rng(5)
        xi = coboundary(g, random_gamma(g, rng))
        assert np.max(np.abs(xi - xi.T)) <= 1e-12

    def test_obstruction_invariant_under_coboundary_shift(self):
        g = klein_four_group()
        rng = np.random.default_rng(7)
        pm = pauli_multiplier()
        base = np.max(np.abs(pm.xi - pm.xi.T))
        for _ in range(20):
            shifted = pm.xi + coboundary(g, random_gamma(g, rng))
            assert abs(np.max(np.abs(shifted - shifted.T)) - base) <= 1e-12


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

    def test_batched_product_matches_scalar_calls(self):
        # arrays of thetas and indices broadcast to every product at once,
        # bit for bit what the one-element calls give
        rng = np.random.default_rng(19)
        g = relabelled_s3()
        xi = rng.uniform(-3, 3, (6, 6))
        xi[g.identity, :] = xi[:, g.identity] = 0.0
        mult = MultiplierTable(group=g, xi=xi)
        i1, i2 = np.ix_(np.arange(6), np.arange(6))
        th1, th2 = rng.uniform(-np.pi, np.pi, (6, 1)), rng.uniform(-np.pi, np.pi, (1, 6))
        th, k = extension_product((th1, i1), (th2, i2), mult)
        assert th.shape == k.shape == (6, 6)
        for a in range(6):
            for b in range(6):
                want = extension_product((float(th1[a, 0]), a), (float(th2[0, b]), b), mult)
                assert (th[a, b], k[a, b]) == want

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


class TestDirectSumObstruction:
    def test_equivalent_multipliers_extend_to_the_sum(self):
        # rep1 carries the zero multiplier, rep2 a planted coboundary of it;
        # the solver recovers gamma and the rephased block sum composes with
        # one common multiplier
        g = cyclic_group(3)
        gamma0 = np.array([0.0, 1.1, -0.4])
        xi2 = MultiplierTable(group=g, xi=coboundary(g, gamma0))
        res = coboundary_solve(zero_multiplier(g), xi2)
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

    def test_obstructed_multiplier_blocks_the_sum(self):
        # rep1 trivial on C^1, rep2 the Pauli projective rep: the multipliers
        # are not equivalent (the second is not even a strict cocycle) and no
        # single phase can reconcile the block sum
        pm = pauli_multiplier()
        g = pm.group
        with pytest.raises(NotACocycle):
            coboundary_solve(zero_multiplier(g), pm)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                # per-block phases demanded by the two ray laws
                phase1 = 1.0  # trivial block composes exactly
                phase2 = np.exp(1j * pm.xi[i, j])
                worst = max(worst, abs(phase1 - phase2))
        assert worst == 2.0  # anticommuting pair forces opposite phases
