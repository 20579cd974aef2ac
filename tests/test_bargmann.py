import numpy as np
import pytest

from superselect import bargmann as bg
from superselect.errors import (
    DegenerateSample,
    ShiftNotOnGrid,
    SupportClipped,
    UnstableStep,
)


# Scalar formulas, one element at a time, as references for the batched passes.

def ref_rotation(axis, angle):
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    r = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    uu, _, vv = np.linalg.svd(r)
    r = uu @ vv
    return -r if np.linalg.det(r) < 0 else r


def ref_multiply(g1, g2):
    (r1, v1, a1, b1), (r2, v2, a2, b2) = g1, g2
    return r1 @ r2, v1 + r1 @ v2, a1 + r1 @ a2 + v1 * b2, b1 + b2


def ref_exponent(mass, g1, g2):
    (r1, v1, _, _), (_, _, a2, b2) = g1, g2
    return mass * (v1 @ (r1 @ a2) + 0.5 * (v1 @ v1) * b2)


def ref_action(theta, g, x, lam, t, total):
    r, v, a, b = g
    return (x @ r.T + v * t + a,
            lam - (theta / total + (x @ r.T) @ v + 0.5 * (v @ v) * t), t + b)


def sample(g, i):
    """(R, v, a, b) of sample i of a batched element."""
    return g.R[i], g.v[i], g.a[i], float(g.b[i])


REF_ATOL = 1e-12


def galilei_inverse(g):
    """(R^-1, -R^-1 v, -R^-1 (a - v b), -b), sample by sample for a batch."""
    rt = np.swapaxes(g.R, -1, -2)
    return bg.GalileiElement(R=rt, v=-np.einsum("...ij,...j->...i", rt, g.v),
                             a=-np.einsum("...ij,...j->...i", rt,
                                          g.a - g.v * np.asarray(g.b)[..., None]),
                             b=-g.b)


def elements_equal(g1, g2, atol=1e-12):
    return (np.allclose(g1.R, g2.R, atol=atol) and np.allclose(g1.v, g2.v, atol=atol)
            and np.allclose(g1.a, g2.a, atol=atol) and abs(g1.b - g2.b) <= atol)


class TestGalileiArithmetic:
    def test_identity_neutral(self):
        g = bg.GalileiElement(R=bg.rotation_from_axis_angle([1, 1, 0], 0.3),
                              v=[1, 2, 3], a=[-1, 0, 1], b=0.5)
        assert elements_equal(bg.galilei_multiply(g, bg.GalileiElement()), g)
        assert elements_equal(bg.galilei_multiply(bg.GalileiElement(), g), g)

    def test_boosts_close(self):
        g1 = bg.GalileiElement(v=[1.0, 0.0, 0.0])
        g2 = bg.GalileiElement(v=[0.0, 2.0, 0.0])
        prod = bg.galilei_multiply(g1, g2)
        assert elements_equal(prod, bg.GalileiElement(v=[1.0, 2.0, 0.0]))

    def test_group_axioms_sampled(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(10000):
            g1, g2, g3 = (bg.random_galilei_element(rng) for _ in range(3))
            lhs = bg.galilei_multiply(bg.galilei_multiply(g1, g2), g3)
            rhs = bg.galilei_multiply(g1, bg.galilei_multiply(g2, g3))
            worst = max(worst, np.max(np.abs(lhs.R - rhs.R)),
                        np.max(np.abs(lhs.v - rhs.v)),
                        np.max(np.abs(lhs.a - rhs.a)), abs(lhs.b - rhs.b))
            gi = bg.galilei_multiply(g1, galilei_inverse(g1))
            worst = max(worst, np.max(np.abs(gi.R - np.eye(3))),
                        np.max(np.abs(gi.v)), np.max(np.abs(gi.a)), abs(gi.b))
        assert worst <= 1e-12

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError):
            bg.GalileiElement(R=np.diag([1.0, 1.0, -1.0]))

    def test_batch_checks_every_rotation(self):
        good = bg.rotation_from_axis_angle([0.3, -1.0, 0.2], 0.9)
        with pytest.raises(ValueError):
            bg.GalileiElement(R=np.stack([good, np.diag([1.0, 1.0, -1.0]), good]))
        with pytest.raises(ValueError):
            bg.GalileiElement(R=np.stack([good, good + 1e-9]))

    @pytest.mark.parametrize("r", [
        np.stack([np.eye(3), np.eye(3), np.eye(3) + 1e-9]),  # one sample not orthogonal
        np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0]), np.eye(3)]),  # one det -1 sample
        np.eye(3) + 1e-9,                 # shared by the 3 samples of v
        np.diag([-1.0, 1.0, 1.0])[None],  # shared along a length-1 axis
    ])
    def test_rejects_a_non_rotation_given_shared_or_per_sample(self, r):
        # R is checked as given, before it is broadcast to the sample axis
        with pytest.raises(ValueError, match="proper rotation"):
            bg.GalileiElement(R=r, v=np.zeros((3, 3)))

    def test_shared_identity_broadcasts_over_the_samples(self):
        g = bg.GalileiElement(R=np.eye(3), v=np.zeros((1000, 3)), b=np.zeros(1000))
        assert g.R.shape == (1000, 3, 3) and g.a.shape == (1000, 3)
        assert np.array_equal(g.R, np.broadcast_to(np.eye(3), (1000, 3, 3)))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_axis_scale_neither_under_nor_overflows(self, scale):
        # the norm of the raw axis squares its entries: 1e-200 gave the
        # identity, 1e200 overflowed
        for axis in ([1.0, 0.0, 0.0], [0.3, -1.0, 0.2]):
            want = bg.rotation_from_axis_angle(axis, 0.5)
            with np.errstate(over="raise", under="raise"):
                got = bg.rotation_from_axis_angle(np.multiply(axis, scale), 0.5)
            assert np.max(np.abs(got - want)) <= 1e-15
            assert np.max(np.abs(got - np.eye(3))) > 0.1

    def test_zero_axis_gives_the_identity(self):
        assert np.array_equal(bg.rotation_from_axis_angle([0.0, 0.0, 0.0], 0.5), np.eye(3))
        stack = bg.rotation_from_axis_angle([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-300]], [0.5, 0.5])
        assert np.array_equal(stack[0], np.eye(3))
        assert np.array_equal(stack[1], bg.rotation_from_axis_angle([0.0, 0.0, 1.0], 0.5))

    def test_single_draw_keeps_its_order(self):
        g = bg.random_galilei_element(np.random.default_rng(11))
        rng = np.random.default_rng(11)
        axis, angle = rng.standard_normal(3), rng.uniform(-np.pi, np.pi)
        v, a, b = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-2, 2)
        assert g.R.shape == (3, 3) and isinstance(g.b, float)
        assert np.max(np.abs(g.R - ref_rotation(axis, angle))) <= REF_ATOL
        assert np.array_equal(g.v, v) and np.array_equal(g.a, a) and g.b == b

    def test_batched_draw_matches_scalar_formulas(self):
        k = 64
        g = bg.random_galilei_element(np.random.default_rng(12), count=k)
        rng = np.random.default_rng(12)
        axis, angle = rng.standard_normal((k, 3)), rng.uniform(-np.pi, np.pi, k)
        v, a, b = rng.uniform(-2, 2, (k, 3)), rng.uniform(-2, 2, (k, 3)), rng.uniform(-2, 2, k)
        assert g.R.shape == (k, 3, 3) and g.b.shape == (k,)
        for i in range(k):
            assert np.max(np.abs(g.R[i] - ref_rotation(axis[i], angle[i]))) <= REF_ATOL
        assert np.array_equal(g.v, v) and np.array_equal(g.a, a) and np.array_equal(g.b, b)

    def test_batched_product_and_inverse_match_scalar_formulas(self):
        rng = np.random.default_rng(13)
        g1, g2 = (bg.random_galilei_element(rng, count=32) for _ in range(2))
        prod = bg.galilei_multiply(g1, g2)
        ident = bg.galilei_multiply(g1, galilei_inverse(g1))
        for i in range(32):
            for got, want in zip(sample(prod, i), ref_multiply(sample(g1, i), sample(g2, i))):
                assert np.max(np.abs(got - want)) <= REF_ATOL
            assert np.max(np.abs(ident.R[i] - np.eye(3))) <= REF_ATOL
            assert max(np.max(np.abs(ident.v[i])), np.max(np.abs(ident.a[i])),
                       abs(ident.b[i])) <= REF_ATOL


    def test_wrong_shapes_rejected(self):
        with pytest.raises(ValueError, match="rotation axis must be a 3-vector"):
            bg.rotation_from_axis_angle([1.0, 0.0], 0.5)
        with pytest.raises(ValueError, match="R must be 3 x 3"):
            bg.GalileiElement(R=np.eye(2))

class TestBargmannExponent:
    def test_boost_then_translation(self):
        g1 = bg.GalileiElement(v=[1, 0, 0])
        g2 = bg.GalileiElement(a=[1, 0, 0])
        assert bg.bargmann_exponent(1.0, g1, g2) == 1.0
        assert bg.bargmann_exponent(1.0, g2, g1) == 0.0

    def test_vanishes_without_boost(self):
        rng = np.random.default_rng(2)
        g2 = bg.random_galilei_element(rng)
        g1 = bg.GalileiElement(R=bg.rotation_from_axis_angle([0, 1, 0], 1.0),
                               a=[1, 2, 3], b=0.7)
        assert bg.bargmann_exponent(3.0, g1, g2) == 0.0

    def test_normalization_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = bg.random_galilei_element(rng)
            assert bg.bargmann_exponent(2.0, bg.GalileiElement(), g) == 0.0
            assert bg.bargmann_exponent(2.0, g, bg.GalileiElement()) == 0.0

    def test_vanishes_on_translation_and_rotation_subgroups(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t1 = bg.GalileiElement(a=rng.uniform(-2, 2, 3))
            t2 = bg.GalileiElement(a=rng.uniform(-2, 2, 3))
            assert bg.bargmann_exponent(1.5, t1, t2) == 0.0
            r1 = bg.GalileiElement(R=bg.rotation_from_axis_angle(rng.standard_normal(3),
                                                                 rng.uniform(-np.pi, np.pi)))
            r2 = bg.GalileiElement(R=bg.rotation_from_axis_angle(rng.standard_normal(3),
                                                                 rng.uniform(-np.pi, np.pi)))
            assert bg.bargmann_exponent(1.5, r1, r2) == 0.0

    def test_linear_in_mass(self):
        rng = np.random.default_rng(5)
        g1, g2 = bg.random_galilei_element(rng), bg.random_galilei_element(rng)
        x1 = bg.bargmann_exponent(1.0, g1, g2)
        assert bg.bargmann_exponent(2.0, g1, g2) == 2.0 * x1
        assert bg.bargmann_exponent(0.5, g1, g2) == 0.5 * x1

    def test_cocycle_identity_sampled(self):
        assert bg.bargmann_cocycle_check(1.0, samples=1000, seed=0) <= 1e-9

    def test_cocycle_delta_matches_scalar_loop(self):
        mass, samples, seed = 1.7, 300, 3
        rng = np.random.default_rng([seed, 401])
        g1, g2, g3 = (bg.random_galilei_element(rng, samples) for _ in range(3))
        delta = (bg.bargmann_exponent(mass, g1, g2)
                 - bg.bargmann_exponent(mass, g1, bg.galilei_multiply(g2, g3))
                 + bg.bargmann_exponent(mass, bg.galilei_multiply(g1, g2), g3)
                 - bg.bargmann_exponent(mass, g2, g3))
        ref = []
        for i in range(samples):
            h1, h2, h3 = sample(g1, i), sample(g2, i), sample(g3, i)
            ref.append(ref_exponent(mass, h1, h2)
                       - ref_exponent(mass, h1, ref_multiply(h2, h3))
                       + ref_exponent(mass, ref_multiply(h1, h2), h3)
                       - ref_exponent(mass, h2, h3))
        assert delta.shape == (samples,)
        assert np.max(np.abs(delta - np.array(ref))) <= REF_ATOL
        worst = bg.bargmann_cocycle_check(mass, samples=samples, seed=seed)
        assert abs(worst - np.max(np.abs(ref))) <= REF_ATOL

    def test_mass_sequence_gives_worst_single_mass(self):
        pair = bg.bargmann_cocycle_check((2.0, 1.0))
        assert pair == max(bg.bargmann_cocycle_check(2.0), bg.bargmann_cocycle_check(1.0))

    def test_cocycle_exact_on_translations(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            g1, g2, g3 = (bg.GalileiElement(a=rng.uniform(-2, 2, 3)) for _ in range(3))
            delta = (bg.bargmann_exponent(1.0, g1, g2)
                     - bg.bargmann_exponent(1.0, g1, bg.galilei_multiply(g2, g3))
                     + bg.bargmann_exponent(1.0, bg.galilei_multiply(g1, g2), g3)
                     - bg.bargmann_exponent(1.0, g2, g3))
            worst = max(worst, abs(delta))
        assert worst == 0.0


class TestMassSuperselection:
    def test_canonical_obstruction_triple(self):
        rep = bg.mass_superselection_report(2.0, 1.0, samples=100, seed=0)
        assert rep["canonical_pair_obstructions"] == (2.0, 1.0, 1.0)
        assert rep["obstruction_m1"] >= 2.0 and rep["obstruction_m2"] >= 1.0
        assert rep["inequivalent"]

    def test_equal_masses_rejected(self):
        for m2 in (1.0, 1.0 + 1e-12):
            with pytest.raises(ValueError, match="two distinct masses"):
                bg.mass_superselection_report(1.0, m2)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(ValueError, match="masses must be positive and finite"):
            bg.mass_superselection_report(1.0, -1.0)

    @pytest.mark.parametrize("m1, m2", [(2.0, 1.0), (0.5, 3.0), (1.383646, 1.383169)])
    def test_obstructions_are_linear_in_mass(self, m1, m2):
        # one factor per sample set, so each obstruction is held to its own mass
        rep = bg.mass_superselection_report(m1, m2, samples=100, seed=0)
        ratios = [rep["obstruction_m1"] / m1, rep["obstruction_m2"] / m2,
                  rep["obstruction_difference"] / abs(m1 - m2)]
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-9)
        assert rep["inequivalent"]

    def test_rotation_only_pairs_contribute_nothing(self):
        # rotations about a shared axis commute and the exponent has no
        # pure-rotation term
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            r1 = bg.GalileiElement(R=bg.rotation_from_axis_angle([0, 0, 1],
                                                                 rng.uniform(-np.pi, np.pi)))
            r2 = bg.GalileiElement(R=bg.rotation_from_axis_angle([0, 0, 1],
                                                                 rng.uniform(-np.pi, np.pi)))
            worst = max(worst, abs(bg.bargmann_exponent(2.0, r1, r2)
                                   - bg.bargmann_exponent(2.0, r2, r1)))
        assert worst == 0.0

    def test_obstructions_match_scalar_loop(self):
        # the pairs are drawn as (v1, a1, v2, a2), one pair after another
        m1, m2, samples, seed = 2.3, 0.7, 150, 4
        rng = np.random.default_rng([seed, 402])
        pairs = [[(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]]
        pairs += [[rng.uniform(-2.0, 2.0, size=3) for _ in range(4)] for _ in range(samples)]
        ident = np.eye(3)

        def obstruction(xi):
            worst = 0.0
            for v1, a1, v2, a2 in pairs:
                h1 = (ident, np.array(v1), np.array(a1), 0.0)
                h2 = (ident, np.array(v2), np.array(a2), 0.0)
                worst = max(worst, abs(xi(h1, h2) - xi(h2, h1)))
            return worst

        rep = bg.mass_superselection_report(m1, m2, samples=samples, seed=seed)
        ref = {
            "obstruction_m1": obstruction(lambda x, y: ref_exponent(m1, x, y)),
            "obstruction_m2": obstruction(lambda x, y: ref_exponent(m2, x, y)),
            "obstruction_difference": obstruction(
                lambda x, y: ref_exponent(m1, x, y) - ref_exponent(m2, x, y)),
        }
        for key, value in ref.items():
            assert isinstance(rep[key], float)
            assert abs(rep[key] - value) <= REF_ATOL

    def test_degenerate_sample_detected(self, monkeypatch):
        def symmetric_pairs(rng, count):
            g = bg.GalileiElement(v=np.tile([1.0, 0, 0], (count, 1)),
                                  a=np.tile([1.0, 0, 0], (count, 1)))
            return g, g

        monkeypatch.setattr(bg, "_boost_translation_pairs", symmetric_pairs)
        with pytest.raises(DegenerateSample):
            bg.mass_superselection_report(2.0, 1.0, samples=10, seed=0)


class TestRayCompose:
    @pytest.fixture
    def grid(self):
        return np.linspace(-16.0, 16.0, 641)  # spacing 0.05

    def test_gaussian_picks_up_the_multiplier_phase(self, grid):
        psi = np.exp(-grid ** 2)
        g1 = bg.GalileiElement(v=[1.0, 0, 0])
        g2 = bg.GalileiElement(a=[1.0, 0, 0])
        out = bg.ray_compose_check(1.0, grid, g1, g2, psi)
        assert out["ok"] and out["max_deviation"] <= 1e-12
        assert abs(out["phase"] - np.exp(1j)) <= 1e-12

    def test_identity_second_factor(self, grid):
        psi = np.exp(-grid ** 2)
        g1 = bg.GalileiElement(v=[0.7, 0, 0], a=[2.0, 0, 0])
        out = bg.ray_compose_check(1.0, grid, g1, bg.GalileiElement(), psi)
        assert out["phase"] == 1.0 and out["max_deviation"] <= 1e-12

    def test_swapped_order_has_no_phase(self, grid):
        psi = np.exp(-grid ** 2)
        g1 = bg.GalileiElement(v=[1.0, 0, 0])
        g2 = bg.GalileiElement(a=[1.0, 0, 0])
        out = bg.ray_compose_check(1.0, grid, g2, g1, psi)
        assert out["phase"] == 1.0 and out["max_deviation"] <= 1e-12

    def test_negative_shift(self, grid):
        psi = np.exp(-grid ** 2)
        g1 = bg.GalileiElement(v=[0.5, 0, 0], a=[-1.5, 0, 0])
        g2 = bg.GalileiElement(v=[-0.3, 0, 0], a=[2.0, 0, 0])
        out = bg.ray_compose_check(1.0, grid, g1, g2, psi)
        assert out["ok"]
        assert abs(out["exponent"] - 0.5 * 2.0) <= 1e-15

    def test_off_grid_shift_rejected(self, grid):
        psi = np.exp(-grid ** 2)
        g = bg.GalileiElement(a=[0.033, 0, 0])
        with pytest.raises(ShiftNotOnGrid):
            bg.ray_compose_check(1.0, grid, g, bg.GalileiElement(), psi)

    def test_clipped_support_rejected(self, grid):
        psi = np.exp(-0.01 * grid ** 2)  # wide: reaches the boundary
        for shift in (5.0, -5.0):
            g = bg.GalileiElement(a=[shift, 0, 0])
            with pytest.raises(SupportClipped):
                bg.ray_compose_check(1.0, grid, g, bg.GalileiElement(), psi)

    def test_bad_input_rejected(self, grid):
        psi = np.exp(-grid ** 2)
        boost = bg.GalileiElement(v=[1.0, 0, 0])
        with pytest.raises(ValueError, match="grid must be a 1-d array"):
            bg.ray_compose_check(1.0, grid[None], boost, boost, psi)
        with pytest.raises(ValueError, match="grid must be uniform"):
            bg.ray_compose_check(1.0, grid ** 3, boost, boost, psi)
        with pytest.raises(ValueError, match="psi must be sampled on the grid"):
            bg.ray_compose_check(1.0, grid, boost, boost, psi[:-1])
        turn = bg.GalileiElement(R=bg.rotation_from_axis_angle([0, 0, 1], 0.1))
        with pytest.raises(ValueError, match="boost/translations along x"):
            bg.ray_compose_check(1.0, grid, boost, turn, psi)


class TestExtendedAction:
    def test_central_element_shifts_lambda_only(self):
        e = bg.ExtendedElement(theta=0.7, g=bg.GalileiElement())
        xs, lams, t = bg.extended_action(e, [[1.0, 2.0, 3.0]], [0.5], 1.5, [2.0])
        assert np.allclose(xs, [[1.0, 2.0, 3.0]]) and t == 1.5
        assert np.allclose(lams, [0.5 - 0.35])

    def test_identity_fixed_point(self):
        e = bg.ExtendedElement(theta=0.0, g=bg.GalileiElement())
        xs, lams, t = bg.extended_action(e, [[1, 2, 3]], [0.1], 2.0, [1.0])
        assert np.allclose(xs, [[1, 2, 3]]) and lams[0] == 0.1 and t == 2.0

    def test_configuration_part_matches_unextended_action(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = bg.random_galilei_element(rng)
            e = bg.ExtendedElement(theta=0.0, g=g)
            x = rng.uniform(-2, 2, (3, 3))
            t = float(rng.uniform(-2, 2))
            xs, _, t_new = bg.extended_action(e, x, np.zeros(3), t, [1.0, 2.0, 3.0])
            assert np.allclose(xs, x @ g.R.T + g.v * t + g.a, atol=1e-12)
            assert abs(t_new - (t + g.b)) <= 1e-12

    def test_composition_property(self):
        rng = np.random.default_rng(8)
        masses = np.array([1.0, 2.0])
        worst = 0.0
        for _ in range(1000):
            e1 = bg.ExtendedElement(theta=float(rng.uniform(-2, 2)),
                                    g=bg.random_galilei_element(rng))
            e2 = bg.ExtendedElement(theta=float(rng.uniform(-2, 2)),
                                    g=bg.random_galilei_element(rng))
            xs = rng.uniform(-2, 2, (2, 3))
            lams = rng.uniform(-2, 2, 2)
            t = float(rng.uniform(-2, 2))
            x2, l2, t2 = bg.extended_action(e2, xs, lams, t, masses)
            x12, l12, t12 = bg.extended_action(e1, x2, l2, t2, masses)
            xa, la, ta = bg.extended_action(
                bg.extended_multiply(e1, e2, float(masses.sum())), xs, lams, t, masses)
            worst = max(worst, float(np.max(np.abs(x12 - xa))),
                        float(np.max(np.abs(l12 - la))), abs(t12 - ta))
        assert worst <= 1e-12


    def test_composition_residual_matches_scalar_loop(self):
        masses, samples, seed = np.array([0.8, 1.3, 0.4]), 200, 5
        total = float(masses.sum())
        rng = np.random.default_rng([seed, 403])
        th1, g1 = rng.uniform(-2, 2, samples), bg.random_galilei_element(rng, samples)
        th2, g2 = rng.uniform(-2, 2, samples), bg.random_galilei_element(rng, samples)
        xs = rng.uniform(-2, 2, (samples, 3, 3))
        lams = rng.uniform(-2, 2, (samples, 3))
        t = rng.uniform(-2, 2, samples)
        e1, e2 = bg.ExtendedElement(theta=th1, g=g1), bg.ExtendedElement(theta=th2, g=g2)
        x2, l2, t2 = bg.extended_action(e2, xs, lams, t, masses)
        x12, l12, t12 = bg.extended_action(e1, x2, l2, t2, masses)
        e12 = bg.extended_multiply(e1, e2, total)
        xa, la, ta = bg.extended_action(e12, xs, lams, t, masses)
        worst = 0.0
        for i in range(samples):
            h1, h2 = sample(g1, i), sample(g2, i)
            r2 = ref_action(th2[i], h2, xs[i], lams[i], t[i], total)
            r12 = ref_action(th1[i], h1, *r2, total)
            theta = th1[i] + th2[i] + ref_exponent(total, h1, h2)
            ra = ref_action(theta, ref_multiply(h1, h2), xs[i], lams[i], t[i], total)
            for got, want in zip((x2[i], l2[i], t2[i], x12[i], l12[i], t12[i],
                                  xa[i], la[i], ta[i]), (*r2, *r12, *ra)):
                assert np.max(np.abs(got - want)) <= REF_ATOL
            worst = max(worst, np.max(np.abs(r12[0] - ra[0])),
                        np.max(np.abs(r12[1] - ra[1])), abs(r12[2] - ra[2]))
        got = bg.extended_action_composition_check(masses, samples=samples, seed=seed)
        assert abs(got - worst) <= REF_ATOL
        assert got <= 1e-12


    def test_bad_input_rejected(self):
        e = bg.ExtendedElement(theta=0.0, g=bg.GalileiElement())
        with pytest.raises(ValueError, match="one entry per particle"):
            bg.extended_action(e, np.zeros((2, 3)), np.zeros(2), 0.0, [1.0])
        with pytest.raises(ValueError, match="masses must be positive and finite"):
            bg.extended_action(e, np.zeros((2, 3)), np.zeros(2), 0.0, [1.0, 0.0])

class TestSampleCount:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampling_checks_need_a_sample(self, samples):
        checks = (lambda: bg.bargmann_cocycle_check(1.0, samples=samples),
                  lambda: bg.mass_superselection_report(2.0, 1.0, samples=samples),
                  lambda: bg.extended_action_composition_check([1.0, 1.0], samples=samples))
        for check in checks:
            with pytest.raises(ValueError, match="samples must be >= 1"):
                check()

    def test_one_sample_is_enough(self):
        assert bg.bargmann_cocycle_check(1.0, samples=1) <= 1e-9
        assert bg.extended_action_composition_check([1.0], samples=1) <= 1e-12
        assert bg.mass_superselection_report(2.0, 1.0, samples=1)["inequivalent"]


# The per-step integrator, one point and one pair at a time, as the reference
# for the batched Verlet loop and its post-loop energy and lambda passes.

def ref_pair_energy(pot, x):
    n = x.shape[0]
    e = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r = float(np.linalg.norm(x[i] - x[j]))
            e += pot.k * (r - pot.L) ** 2
    return e


def ref_pair_forces(pot, x):
    n = x.shape[0]
    f = np.zeros_like(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            r = float(np.linalg.norm(dx))
            pull = -2.0 * pot.k * (r - pot.L) * dx / r
            f[i] += pull
            f[j] -= pull
    return f


def ref_dynamics(initial, pot, dt, steps):
    """(times, x, p, lam, energy) of the step-by-step velocity Verlet loop."""
    forces = (lambda x: np.zeros_like(x)) if pot is None else (lambda x: ref_pair_forces(pot, x))
    potential = (lambda x: 0.0) if pot is None else (lambda x: ref_pair_energy(pot, x))
    n = initial.x.shape[0]
    x, p = np.empty((steps + 1, n, 3)), np.empty((steps + 1, n, 3))
    lam, energy = np.empty((steps + 1, n)), np.empty(steps + 1)
    x[0], p[0], lam[0] = initial.x, initial.p, initial.lam
    m = initial.m
    minv = 1.0 / m[:, None]

    def lam_rate(pk):
        return -np.sum(pk * pk, axis=1) / (2.0 * m * m)

    f = forces(x[0])
    energy[0] = float(np.sum(p[0] * p[0] * minv) / 2.0 + potential(x[0]))
    for k in range(steps):
        x[k + 1] = x[k] + dt * p[k] * minv + 0.5 * dt * dt * f * minv
        f_new = forces(x[k + 1])
        p[k + 1] = p[k] + 0.5 * dt * (f + f_new)
        lam[k + 1] = lam[k] + 0.5 * dt * (lam_rate(p[k]) + lam_rate(p[k + 1]))
        f = f_new
        energy[k + 1] = float(np.sum(p[k + 1] * p[k + 1] * minv) / 2.0 + potential(x[k + 1]))
    return initial.t + dt * np.arange(steps + 1), x, p, lam, energy


TRAJECTORY_FIELDS = ("times", "x", "p", "lam", "energy")


def random_point(rng, n):
    return bg.ExtendedPhasePoint(x=rng.uniform(-1.5, 1.5, (n, 3)), p=rng.uniform(-0.5, 0.5, (n, 3)),
                                 m=rng.uniform(0.5, 2.0, n), lam=rng.uniform(-1, 1, n),
                                 t=float(rng.uniform(-1, 1)))


class TestBatchedIntegrator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pot", [None, bg.HarmonicPairPotential(1.3, 0.8)],
                             ids=["free", "harmonic"])
    def test_matches_the_per_step_loop(self, n, pot):
        pt = random_point(np.random.default_rng([71, n]), n)
        traj = bg.extended_dynamics(pt, pot, 1e-3, 300)
        for name, want in zip(TRAJECTORY_FIELDS, ref_dynamics(pt, pot, 1e-3, 300)):
            assert np.array_equal(getattr(traj, name), want), name
        assert np.array_equal(traj.m, pt.m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pot", [None, bg.HarmonicPairPotential(1.3, 0.8)],
                             ids=["free", "harmonic"])
    def test_each_member_equals_its_solo_run(self, n, pot):
        rng = np.random.default_rng([72, n])
        points = [random_point(rng, n) for _ in range(3)]
        batch = bg.extended_dynamics(points, pot, 1e-3, 200)
        assert isinstance(batch, tuple) and len(batch) == 3
        for pt, member in zip(points, batch):
            solo = bg.extended_dynamics(pt, pot, 1e-3, 200)
            for name in TRAJECTORY_FIELDS + ("m",):
                assert np.array_equal(getattr(member, name), getattr(solo, name)), name

    def test_drift_check_covers_the_transformed_member(self):
        # velocity Verlet at omega dt = 1.8 is stable but its energy error is
        # large against the relative motion.  The drift is measured on the
        # centre-of-mass-frame energy, so a point carried by a large
        # centre-of-mass momentum and its boost to rest get the same verdict,
        # alone or batched; at a small step both pass with the same drift
        pt = bg.ExtendedPhasePoint(x=[[0, 0, 0], [1.1, 0, 0]], p=[[5.0, 0, 0], [5.0, 0, 0]],
                                   m=[1.0, 1.0], lam=[0.0, 0.0])
        pot = bg.HarmonicPairPotential(1.0, 1.0)
        rest = bg.transform_phase_point(
            bg.ExtendedElement(theta=0.0, g=bg.GalileiElement(v=[-5.0, 0, 0])), pt)
        for start in (pt, rest, [pt, rest], [rest, pt]):
            with pytest.raises(UnstableStep):
                bg.extended_dynamics(start, pot, 0.9, 200)
        moving, still = bg.extended_dynamics([pt, rest], pot, 1e-3, 2000)
        assert 0 < still.drift < 1e-6
        assert moving.drift == pytest.approx(still.drift, rel=1e-6)
        assert moving.energy[0] - still.energy[0] == pytest.approx(25.0)

    def test_zero_steps(self):
        pt = random_point(np.random.default_rng(73), 2)
        pot = bg.HarmonicPairPotential()
        traj, moved = bg.extended_dynamics([pt, pt], pot, 1e-3, 0)
        for name, want in zip(TRAJECTORY_FIELDS, ref_dynamics(pt, pot, 1e-3, 0)):
            assert np.array_equal(getattr(traj, name), want), name
            assert np.array_equal(getattr(moved, name), want), name

    def test_symmetry_check_accepts_the_batched_transformed_run(self):
        # the check integrates the point and its transform as one batch; its
        # trajectory and deviation equal those of two unbatched integrations
        pt = random_point(np.random.default_rng(74), 2)
        pot = bg.HarmonicPairPotential()
        e = bg.ExtendedElement(theta=0.3, g=bg.random_galilei_element(np.random.default_rng(42)))
        traj, dev = bg.dynamics_symmetry_check(pt, e, pot, 1e-3, 500)
        solo = bg.extended_dynamics(pt, pot, 1e-3, 500)
        moved = bg.extended_dynamics(bg.transform_phase_point(e, pt), pot, 1e-3, 500)
        for name in TRAJECTORY_FIELDS + ("m",):
            assert np.array_equal(getattr(traj, name), getattr(solo, name)), name
        got, want = moved.final(), bg.transform_phase_point(e, solo.final())
        assert dev == max(float(np.max(np.abs(getattr(got, f) - getattr(want, f))))
                          for f in ("x", "p", "lam"))

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_dt_is_rejected(self, dt):
        pt = random_point(np.random.default_rng(75), 1)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            bg.extended_dynamics(pt, None, dt, 10)

    def test_unknown_potential_is_rejected(self):
        pt = random_point(np.random.default_rng(77), 2)
        with pytest.raises(ValueError, match="potential must be None or a HarmonicPairPotential"):
            bg.extended_dynamics(pt, "harmonic", 1e-3, 10)

    def test_bad_phase_point_is_rejected(self):
        with pytest.raises(ValueError, match="agree on the particle count"):
            bg.ExtendedPhasePoint(x=np.zeros((2, 3)), p=np.zeros((1, 3)), m=[1.0, 1.0],
                                  lam=[0.0, 0.0])
        with pytest.raises(ValueError, match="all fields finite"):
            bg.ExtendedPhasePoint(x=[[np.nan, 0, 0]], p=[[0, 0, 0]], m=[1.0], lam=[0.0])

    def test_coincident_pair_is_rejected(self):
        pt = bg.ExtendedPhasePoint(x=[[0, 0, 0], [1, 0, 0], [1, 0, 0]], p=np.zeros((3, 3)),
                                   m=[1.0, 1.0, 1.0], lam=[0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="particles 1 and 2 start at the same position"):
            bg.extended_dynamics(pt, bg.HarmonicPairPotential(), 1e-3, 10)
        bg.extended_dynamics(pt, None, 1e-3, 10)  # free particles may overlap

    def test_pair_potential_matches_the_pair_loop_on_batches(self):
        pot = bg.HarmonicPairPotential(1.3, 0.7)
        rng = np.random.default_rng(76)
        for n in range(1, 7):
            xs = rng.standard_normal((20, n, 3))
            assert np.array_equal(pot.forces(xs), [ref_pair_forces(pot, x) for x in xs])
            assert np.array_equal(pot.energy(xs), [ref_pair_energy(pot, x) for x in xs])
            assert pot.energy(xs[0]) == ref_pair_energy(pot, xs[0])
            assert isinstance(pot.energy(xs[0]), float)


class TestExtendedDynamics:
    def test_free_particle_lambda_closed_form(self):
        pt = bg.ExtendedPhasePoint(x=[[0, 0, 0]], p=[[2.0, 0, 0]], m=[1.5], lam=[0.25])
        traj = bg.extended_dynamics(pt, None, 1e-3, 1000)
        expect = 0.25 - (4.0 / (2 * 1.5 ** 2)) * (traj.times[-1] - traj.times[0])
        assert abs(traj.lam[-1, 0] - expect) <= 1e-10

    def test_at_rest_lambda_constant(self):
        pt = bg.ExtendedPhasePoint(x=[[1, 0, 0]], p=[[0, 0, 0]], m=[1.0], lam=[0.3])
        traj = bg.extended_dynamics(pt, None, 1e-3, 500)
        assert np.all(traj.lam == 0.3)

    def test_masses_exactly_constant_under_harmonic_pair(self):
        pt = bg.ExtendedPhasePoint(x=[[0, 0, 0], [1.5, 0, 0]],
                                   p=[[0, 0.3, 0], [0, -0.2, 0.1]],
                                   m=[1.0, 2.0], lam=[0.0, 0.0])
        traj = bg.extended_dynamics(pt, bg.HarmonicPairPotential(1.0, 1.0), 1e-3, 10000)
        assert np.array_equal(traj.m, np.array([1.0, 2.0]))
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift <= 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # blow-up is the point
    def test_unstable_step_detected(self):
        pt = bg.ExtendedPhasePoint(x=[[0, 0, 0], [1.2, 0, 0]],
                                   p=[[0, 0, 0], [0, 0, 0]],
                                   m=[1.0, 1.0], lam=[0.0, 0.0])
        with pytest.raises(UnstableStep):
            bg.extended_dynamics(pt, bg.HarmonicPairPotential(50.0, 0.2), 0.5, 200)


class TestDynamicsSymmetry:
    @pytest.fixture
    def harmonic_point(self):
        return bg.ExtendedPhasePoint(x=[[0, 0, 0], [1.5, 0, 0]],
                                     p=[[0, 0.3, 0], [0, -0.2, 0.1]],
                                     m=[1.0, 2.0], lam=[0.0, 0.0])

    def test_translation_of_free_motion_exact(self):
        pt = bg.ExtendedPhasePoint(x=[[0, 0, 0]], p=[[1.0, 0, 0]], m=[1.0], lam=[0.0])
        e = bg.ExtendedElement(theta=0.0, g=bg.GalileiElement(a=[1.0, -0.5, 2.0]))
        assert bg.dynamics_symmetry_check(pt, e, None, 1e-3, 1000)[1] <= 1e-12

    def test_boost_of_free_motion_matches_closed_form(self):
        pt = bg.ExtendedPhasePoint(x=[[0.5, 0, 0]], p=[[2.0, 0, 0]], m=[2.0], lam=[0.1])
        v = np.array([0.3, 0.0, 0.0])
        e = bg.ExtendedElement(theta=0.0, g=bg.GalileiElement(v=v))
        dev = bg.dynamics_symmetry_check(pt, e, None, 1e-3, 1000)[1]
        assert dev <= 1e-10
        # the boosted trajectory integrates the shifted momentum exactly
        moved = bg.extended_dynamics(bg.transform_phase_point(e, pt), None, 1e-3, 1000)
        p_new = 2.0 + 2.0 * 0.3
        lam_expect = moved.lam[0, 0] - (p_new ** 2 / (2 * 4.0)) * (moved.times[-1] - moved.times[0])
        assert abs(moved.lam[-1, 0] - lam_expect) <= 1e-10

    def test_harmonic_generic_element(self, harmonic_point):
        e = bg.ExtendedElement(
            theta=0.3, g=bg.random_galilei_element(np.random.default_rng(42)))
        dev = bg.dynamics_symmetry_check(harmonic_point, e, bg.HarmonicPairPotential(),
                                         1e-3, 1000)[1]
        assert dev <= 1e-5

    def test_second_order_convergence(self, harmonic_point):
        e = bg.ExtendedElement(
            theta=0.3, g=bg.random_galilei_element(np.random.default_rng(42)))
        pot = bg.HarmonicPairPotential()
        d1 = bg.dynamics_symmetry_check(harmonic_point, e, pot, 1e-3, 1000)[1]
        d2 = bg.dynamics_symmetry_check(harmonic_point, e, pot, 5e-4, 2000)[1]
        assert d1 / d2 == pytest.approx(4.0, rel=0.4)

