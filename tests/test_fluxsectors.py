import math

import numpy as np
import pytest
from scipy.special import lpmv

from superselect.errors import QuadratureTooCoarse
from superselect.fluxsectors import (
    ChargeKinematics,
    SphereQuadrature,
    flux_instantaneous,
    flux_retarded,
    lm_arrays,
    lm_index,
    multipole_moments,
    real_sph_harm,
    sector_signature,
    sphere_quadrature,
    total_charge,
)


@pytest.fixture(scope="module")
def quad():
    return sphere_quadrature(64, 128)


def random_directions(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def real_harmonic_rotation(l, rot, rng):
    """Wigner action on the real l-block, solved from sampled directions."""
    n = random_directions(rng, 40)
    y = real_sph_harm(l, n)[l * l:]
    y_rot = real_sph_harm(l, n @ rot.T)[l * l:]
    d = y_rot @ np.linalg.pinv(y)
    assert np.max(np.abs(d @ d.T - np.eye(2 * l + 1))) <= 1e-10  # orthogonal action
    return d


class TestSphereQuadrature:
    def test_takes_only_its_counts(self):
        q = sphere_quadrature(20, 22)
        with pytest.raises(TypeError):
            SphereQuadrature(20, 22, q.nodes, q.weights, q.cos_theta, q.phi)
        with pytest.raises(TypeError):
            SphereQuadrature(20, 22, nodes=q.nodes)

    def test_fields_are_the_product_rule_bit_for_bit(self):
        n_theta, n_phi = 64, 128
        u, wu = np.polynomial.legendre.leggauss(n_theta)
        phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        uu, pp = np.meshgrid(u, phi, indexing="ij")
        s = np.sqrt(1.0 - uu ** 2)
        nodes = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=-1).reshape(-1, 3)
        nodes /= np.linalg.norm(nodes, axis=1)[:, None]
        q = SphereQuadrature(n_theta, n_phi)
        assert np.array_equal(q.cos_theta, u) and np.array_equal(q.phi, phi)
        assert np.array_equal(q.nodes, nodes)
        assert np.array_equal(q.weights, np.repeat(wu, n_phi) * (2.0 * np.pi / n_phi))

    @pytest.mark.parametrize("counts", [(0, 4), (4, 0), (-1, 4)])
    def test_nonpositive_counts_are_refused(self, counts):
        with pytest.raises(ValueError, match="^node counts must be positive$"):
            SphereQuadrature(*counts)


class TestKinematics:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ChargeKinematics(e=1.0, m=0.0, p=[0, 0, 0])

    def test_energy(self):
        k = ChargeKinematics(e=1.0, m=3.0, p=[0, 4.0, 0])
        assert k.energy == 5.0


class TestFluxFormulas:
    def test_static_isotropy(self, quad):
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 0])
        for fn in (flux_instantaneous, flux_retarded):
            vals = fn(k, quad.nodes)
            assert np.max(np.abs(vals - 1 / (4 * np.pi))) == 0.0

    def test_perpendicular_value_by_hand(self):
        # n perp p, |p| = m, e = 1: (m^2/4pi) sqrt(2) m / m^3
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 1.0])
        v = flux_instantaneous(k, np.array([1.0, 0.0, 0.0]))
        assert abs(v - np.sqrt(2) / (4 * np.pi)) <= 1e-15

    def test_instantaneous_even_in_n(self):
        rng = np.random.default_rng(1)
        k = ChargeKinematics(e=2.0, m=1.5, p=[0.3, -1.0, 2.0])
        n = random_directions(rng, 50)
        assert np.max(np.abs(flux_instantaneous(k, n) - flux_instantaneous(k, -n))) == 0.0

    def test_retarded_peaks_forward(self, quad):
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 2.0])
        vals = flux_retarded(k, quad.nodes)
        peak = quad.nodes[np.argmax(vals)]
        assert peak[2] > 0.99  # maximum along +z, the momentum direction

    def test_rejects_non_unit_direction(self):
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 0])
        with pytest.raises(ValueError):
            flux_instantaneous(k, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("direction", [[np.nan, 0.0, 0.0], [0.0, np.nan, 1.0],
                                           [np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0]],
                             ids=["nan", "nan-beside-unit", "inf", "minus-inf"])
    @pytest.mark.parametrize("fn", ["instantaneous", "retarded", "harmonics"])
    def test_rejects_non_finite_direction(self, fn, direction):
        # a NaN norm passed the old `max |norm - 1| > 1e-12` test
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 0.5])
        call = {"instantaneous": lambda n: flux_instantaneous(k, n),
                "retarded": lambda n: flux_retarded(k, n),
                "harmonics": lambda n: real_sph_harm(1, n)}[fn]
        for n in (np.array(direction), np.array([[0.0, 0.0, 1.0], direction])):
            with pytest.raises(ValueError, match="unit vectors"):
                call(n)


class TestQuadrature:
    def test_weights_sum_to_sphere_area(self, quad):
        assert abs(quad.weights.sum() - 4 * np.pi) <= 1e-12
        assert np.all(quad.weights > 0)

    def test_harmonic_orthonormality(self, quad):
        lmax = 4
        rows = [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]
        y = real_sph_harm(lmax, quad.nodes)[[lm_index(l, m) for l, m in rows]]
        gram = (y * quad.weights) @ y.T
        assert np.max(np.abs(gram - np.eye(len(rows)))) <= 1e-10


class TestHarmonicTable:
    def test_matches_lpmv_oracle(self, quad):
        # scipy's lpmv carries the Condon-Shortley phase; (-1)^m removes it
        nodes = np.vstack([quad.nodes, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        table = real_sph_harm(16, nodes)
        assert table.shape == (17 ** 2, len(nodes))
        z, phi = nodes[:, 2], np.arctan2(nodes[:, 1], nodes[:, 0])
        for l in range(17):
            for m in range(-l, l + 1):
                am = abs(m)
                norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                                 * math.factorial(l - am) / math.factorial(l + am))
                leg = norm * (-1.0) ** am * lpmv(am, l, z)
                if m > 0:
                    leg = math.sqrt(2.0) * leg * np.cos(am * phi)
                elif m < 0:
                    leg = math.sqrt(2.0) * leg * np.sin(am * phi)
                assert np.max(np.abs(table[lm_index(l, m)] - leg)) <= 1e-12, (l, m)

    def test_low_degree_closed_forms(self):
        n = random_directions(np.random.default_rng(3), 30)
        x, y, z = n.T
        table = real_sph_harm(2, n)
        c1, c2 = math.sqrt(3 / (4 * math.pi)), math.sqrt(15 / (4 * math.pi))
        expect = {(0, 0): np.full(30, math.sqrt(1 / (4 * math.pi))),
                  (1, -1): c1 * y, (1, 0): c1 * z, (1, 1): c1 * x,
                  (2, -2): c2 * x * y, (2, -1): c2 * y * z,
                  (2, 0): math.sqrt(5 / (16 * math.pi)) * (3 * z * z - 1),
                  (2, 1): c2 * x * z, (2, 2): math.sqrt(15 / (16 * math.pi)) * (x * x - y * y)}
        for (l, m), want in expect.items():
            assert np.max(np.abs(table[lm_index(l, m)] - want)) <= 1e-14

    def test_single_direction_and_degree_zero(self):
        assert real_sph_harm(3, [0.0, 1.0, 0.0]).shape == (16, 1)
        assert real_sph_harm(0, [[1.0, 0.0, 0.0]])[0, 0] == 1.0 / math.sqrt(4.0 * math.pi)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            real_sph_harm(4, np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError):
            real_sph_harm(-1, np.array([[1.0, 0.0, 0.0]]))


class TestMultipoleMoments:
    def test_one_table_per_call(self, quad, monkeypatch):
        # one harmonic table, on the n_theta ring nodes of the meridian, not on the N nodes
        import superselect.fluxsectors as fs
        calls = []

        def counted(lmax, nodes):
            calls.append((lmax, len(nodes)))
            return real_sph_harm(lmax, nodes)

        monkeypatch.setattr(fs, "real_sph_harm", counted)
        multipole_moments(lambda n: np.ones(len(n)), quad, 16)
        assert calls == [(16, quad.n_theta)]

    @pytest.mark.parametrize("shape", [(34, 35), (64, 128), (40, 34)])
    @pytest.mark.parametrize("lmax", [0, 1, 8, 16])
    @pytest.mark.parametrize("fn", [flux_instantaneous, flux_retarded])
    def test_transform_equals_the_harmonic_table_sum(self, shape, lmax, fn):
        q = sphere_quadrature(*shape)
        k = ChargeKinematics(e=1.3, m=0.8, p=[0.4, -0.7, 0.5])
        fm = multipole_moments(lambda n: fn(k, n), q, lmax)
        direct = real_sph_harm(lmax, q.nodes) @ (q.weights * fn(k, q.nodes))
        assert fm.coefficients.shape == direct.shape
        assert np.max(np.abs(fm.coefficients - direct)) <= 1e-14

    def test_lm_arrays_match_lm_index(self):
        l, m = lm_arrays(16)
        assert [lm_index(a, b) for a, b in zip(l.tolist(), m.tolist())] == list(range(17 ** 2))

    def test_uniform_flux_single_moment(self, quad):
        fm = multipole_moments(lambda n: np.full(len(n), 1 / (4 * np.pi)), quad, 8)
        assert abs(fm.coeff(0, 0) - 1 / np.sqrt(4 * np.pi)) <= 1e-10
        assert np.max(np.abs(fm.coefficients[1:])) <= 1e-10

    def test_reproduces_a_pure_harmonic(self, quad):
        fm = multipole_moments(lambda n: real_sph_harm(2, n)[lm_index(2, 1)], quad, 8)
        expect = np.zeros((8 + 1) ** 2)
        expect[lm_index(2, 1)] = 1.0
        assert np.max(np.abs(fm.coefficients - expect)) <= 1e-10

    def test_axial_and_parity_selection_rules(self, quad):
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 1.0])
        fm = multipole_moments(lambda n: flux_instantaneous(k, n), quad, 8)
        assert abs(fm.coeff(2, 0)) > 1e-3
        for l in range(9):
            for m in range(-l, l + 1):
                if m != 0:
                    assert abs(fm.coeff(l, m)) <= 1e-10
                if l % 2 == 1:
                    assert abs(fm.coeff(l, m)) <= 1e-10

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("fn", [flux_instantaneous, flux_retarded])
    def test_gauss_invariance(self, quad, ratio, fn):
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, ratio])
        fm = multipole_moments(lambda n: fn(k, n), quad, 8)
        assert abs(total_charge(fm) - 1.0) <= 1e-8

    def test_negative_charge_recovered(self, quad):
        k = ChargeKinematics(e=-1.0, m=1.0, p=[0, 0, 2.0])
        fm = multipole_moments(lambda n: flux_retarded(k, n), quad, 8)
        assert abs(total_charge(fm) + 1.0) <= 1e-8

    def test_parseval_monotone_and_bounded(self):
        q = sphere_quadrature(64, 128)
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 2.0])
        vals = flux_instantaneous(k, q.nodes)
        power = float(np.sum(q.weights * vals * vals))
        prev = 0.0
        for lmax in range(0, 17, 4):
            fm = multipole_moments(lambda n: flux_instantaneous(k, n), q, lmax)
            total = float(fm.coefficients @ fm.coefficients)
            assert total >= prev - 1e-14
            assert total <= power + 1e-6
            prev = total

    def test_coarse_quadrature_rejected(self):
        q = sphere_quadrature(8, 64)
        with pytest.raises(QuadratureTooCoarse):
            multipole_moments(lambda n: np.ones(len(n)), q, 8)

    def test_lm_index_bounds(self):
        assert lm_index(0, 0) == 0 and lm_index(1, -1) == 1 and lm_index(2, 2) == 8
        with pytest.raises(ValueError):
            lm_index(1, 2)


class TestRotationEquivariance:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("l", [1, 2])
    def test_ninety_degree_rotations(self, quad, axis, l):
        rng = np.random.default_rng(10 * axis + l)
        rot = np.eye(3)
        i, j = [(1, 2), (2, 0), (0, 1)][axis]
        rot = np.zeros((3, 3))
        rot[axis, axis] = 1.0
        rot[i, j], rot[j, i] = -1.0, 1.0  # 90 degrees about the chosen axis
        d = real_harmonic_rotation(l, rot, rng)

        k = ChargeKinematics(e=1.0, m=1.0, p=[0.4, -0.7, 1.1])
        k_rot = ChargeKinematics(e=1.0, m=1.0, p=rot @ k.p)
        f = multipole_moments(lambda n: flux_instantaneous(k, n), quad, 4)
        f_rot = multipole_moments(lambda n: flux_instantaneous(k_rot, n), quad, 4)
        block = f.coefficients[l * l:(l + 1) * (l + 1)]
        block_rot = f_rot.coefficients[l * l:(l + 1) * (l + 1)]
        assert np.max(np.abs(block_rot - d @ block)) <= 1e-10


class TestSectorSignature:
    def test_identical_kinematics_zero(self, quad):
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 1.0])
        sig = sector_signature(k, k, 8, quad)
        assert sig["total_norm"] == 0.0 and not sig["distinct"]

    def test_momentum_splits_sectors_at_equal_charge(self, quad):
        k1 = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 0])
        k2 = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 1.0])
        sig = sector_signature(k1, k2, 8, quad)
        assert sig["l0_difference"] <= 1e-8 and sig["l0_consistent"]
        assert sig["l_ge1_norm"] > 0.01
        assert sig["distinct"]

    def test_charge_difference_is_monopole_only(self, quad):
        k1 = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 0])
        k2 = ChargeKinematics(e=-1.0, m=1.0, p=[0, 0, 0])
        sig = sector_signature(k1, k2, 8, quad)
        assert abs(sig["l0_difference"] - 2 / np.sqrt(4 * np.pi)) <= 1e-10
        assert sig["l_ge1_norm"] <= 1e-10
