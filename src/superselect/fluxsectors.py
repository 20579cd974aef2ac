"""Asymptotic electric flux distributions of moving charges and their multipoles.

Units: 4 pi eps0 = 1 and c = 1; the boundary sphere radius is absorbed, so
flux values are per unit solid angle on the unit sphere.  The monopole
coefficient recovers the total charge, f_00 = Q / sqrt(4 pi), independent of
the momentum; the higher coefficients fingerprint the kinematics, so two
charges with different momenta (or charges) land in different flux classes.
Distances between flux classes are measured with the Euclidean norm on the
multipole coefficients up to the chosen band limit.

Real orthonormal spherical harmonics, no Condon-Shortley phase.  Explicitly,
with n = (x, y, z) on the unit sphere:

    Y_00 = sqrt(1 / 4pi)
    Y_1,-1 = sqrt(3 / 4pi) y      Y_10 = sqrt(3 / 4pi) z     Y_11 = sqrt(3 / 4pi) x
    Y_2,-2 = sqrt(15 / 4pi) x y           Y_2,-1 = sqrt(15 / 4pi) y z
    Y_20 = sqrt(5 / 16pi) (3 z^2 - 1)     Y_21 = sqrt(15 / 4pi) x z
    Y_22 = sqrt(15 / 16pi) (x^2 - y^2)

:func:`real_sph_harm` builds the whole table up to degree lmax in one pass
of the standard recurrence for fully normalised associated Legendre
functions (S. A. Holmes and W. E. Featherstone, "A unified approach to the
Clenshaw summation and the recursive computation of very high degree and
order normalised associated Legendre functions", J. Geodesy 76, 279-299,
2002): a sectoral seed in sin(theta), then a two-term recurrence in l for
each order m.

:func:`multipole_moments` evaluates no harmonic at the quadrature nodes.
:func:`sphere_quadrature` is a product rule, Gauss-Legendre in cos(theta)
times uniform in phi, so the sum over nodes separates (J. R. Driscoll and
D. M. Healy, "Computing Fourier transforms and convolutions on the
2-sphere", Adv. Appl. Math. 15, 202-250, 1994; N. Schaeffer, "Efficient
spherical harmonic transforms aimed at pseudospectral numerical
simulations", Geochem. Geophys. Geosyst. 14, 751-758, 2013): first the phi
sums on each ring, then the Legendre sums over the n_theta rings, with the
recurrence run at the ring nodes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureTooCoarse

__all__ = [
    "ChargeKinematics",
    "SphereQuadrature",
    "FluxMultipoles",
    "flux_instantaneous",
    "flux_retarded",
    "real_sph_harm",
    "multipole_moments",
    "total_charge",
    "sector_signature",
    "lm_index",
    "lm_arrays",
]


@dataclass(frozen=True)
class ChargeKinematics:
    """A point charge with constant momentum: charge e, mass m > 0, momentum p."""

    e: float
    m: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(3))
        if not (self.m > 0):
            raise ValueError("mass must be positive")
        # the energy sqrt(p^2 + m^2) overflows before m or p does
        if not (np.isfinite(self.e) and np.isfinite(self.energy)):
            raise ValueError("kinematics must be finite, energy included")

    @property
    def energy(self) -> float:
        return float(np.sqrt(self.p @ self.p + self.m * self.m))


def _check_unit(n: np.ndarray) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    norms = np.linalg.norm(arr, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= 1e-12):  # NaN and inf fail too
        raise ValueError("directions must be unit vectors to 1e-12")
    return arr


def flux_instantaneous(k: ChargeKinematics, n) -> np.ndarray | float:
    """Flux per solid angle on a sphere centered at the instantaneous position.

    (e m^2 / 4 pi) sqrt(p^2 + m^2) / ((p . n)^2 + m^2)^(3/2); reduces to the
    isotropic e / 4 pi at rest and is even in n.
    """
    arr = _check_unit(n)
    pn = arr @ k.p
    val = (k.e * k.m ** 2 / (4.0 * np.pi)) * k.energy / (pn * pn + k.m ** 2) ** 1.5
    return val if arr.ndim > 1 else float(val)


def flux_retarded(k: ChargeKinematics, n_prime) -> np.ndarray | float:
    """Flux per solid angle on a sphere centered at the retarded position.

    (e m^2 / 4 pi) / (E - p . n')^2 with E = sqrt(p^2 + m^2); peaks along
    the momentum direction.
    """
    arr = _check_unit(n_prime)
    pn = arr @ k.p
    val = (k.e * k.m ** 2 / (4.0 * np.pi)) / (k.energy - pn) ** 2
    return val if arr.ndim > 1 else float(val)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the unit sphere: Gauss-Legendre in cos(theta), uniform in phi.

    Built from its node counts alone.  Node ``t * n_phi + j`` sits at
    (cos_theta[t], phi[j]): n_theta rings of n_phi consecutive nodes.
    """

    n_theta: int
    n_phi: int
    # built from the counts, N = n_theta * n_phi: the (n_theta,) Gauss-Legendre
    # ring nodes, the (n_phi,) angles shared by every ring, the (N, 3) unit
    # vectors and the (N,) positive weights, which sum to 4 pi
    cos_theta: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("node counts must be positive")
        u, wu = np.polynomial.legendre.leggauss(self.n_theta)
        phi = 2.0 * np.pi * (np.arange(self.n_phi) + 0.5) / self.n_phi
        uu, pp = np.meshgrid(u, phi, indexing="ij")
        s = np.sqrt(1.0 - uu ** 2)
        nodes = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=-1).reshape(-1, 3)
        nodes /= np.linalg.norm(nodes, axis=1)[:, None]
        object.__setattr__(self, "cos_theta", u)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", np.repeat(wu, self.n_phi) * (2.0 * np.pi / self.n_phi))


def sphere_quadrature(n_theta: int, n_phi: int) -> SphereQuadrature:
    """The product rule with ``n_theta`` rings of ``n_phi`` nodes."""
    return SphereQuadrature(n_theta, n_phi)


def lm_index(l: int, m: int) -> int:
    """Position of the (l, m) coefficient in the flattened multipole vector."""
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got (l, m) = ({l}, {m})")
    return l * l + l + m


def lm_arrays(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree and order arrays ``(l, m)`` of the ``(lmax+1)^2`` flattened coefficients."""
    k = np.arange((lmax + 1) ** 2)
    l = np.sqrt(k).astype(int)  # exact: the square root of a perfect square is exact
    return l, k - l * l - l


def real_sph_harm(lmax: int, nodes) -> np.ndarray:
    """Table of the real orthonormal spherical harmonics up to degree ``lmax``.

    Returns shape ``((lmax+1)^2, N)`` for ``N`` unit vectors, with Y_lm in
    row ``lm_index(l, m)``; Condon-Shortley-free.  The normalised associated
    Legendre functions come from the Holmes-Featherstone recurrence: the
    sectoral seed Pbar_mm = sqrt((2m+1)/(2m)) sin(theta) Pbar_m-1,m-1, then
    Pbar_lm = a_lm cos(theta) Pbar_l-1,m - b_lm Pbar_l-2,m, advanced in l for
    every m at once.  The recurrence runs unscaled: sin^m(theta) underflows
    only at degrees in the thousands, where Holmes and Featherstone rescale.
    """
    if lmax < 0:
        raise ValueError("lmax must be non-negative")
    arr = _check_unit(np.atleast_2d(np.asarray(nodes, dtype=float)))
    z = np.clip(arr[:, 2], -1.0, 1.0)
    s = np.sqrt(1.0 - z * z)
    mphi = np.arange(lmax + 1)[:, None] * np.arctan2(arr[:, 1], arr[:, 0])
    cos_m = math.sqrt(2.0) * np.cos(mphi)  # row m: sqrt(2) cos(m phi)
    sin_m = math.sqrt(2.0) * np.sin(mphi)
    cos_m[0] = 1.0
    out = np.empty(((lmax + 1) ** 2, z.size))
    pbar = np.zeros((lmax + 1, z.size))   # row m: Pbar_lm at the current l
    prev = np.zeros_like(pbar)            # row m: Pbar_l-1,m
    pbar[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(lmax + 1):
        if l > 0:
            m = np.arange(l)[:, None]
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            # the numerator vanishes at l = 1; max() keeps the denominator positive
            b = np.sqrt((2.0 * l + 1.0) * ((l - 1) ** 2 - m * m)
                        / (max(2 * l - 3, 1) * (l * l - m * m)))
            nxt = np.zeros_like(pbar)
            nxt[:l] = a * z * pbar[:l] - b * prev[:l]
            nxt[l] = math.sqrt((2.0 * l + 1.0) / (2.0 * l)) * s * pbar[l - 1]
            prev, pbar = pbar, nxt
        row = l * l + l  # lm_index(l, 0)
        out[row:row + l + 1] = pbar[:l + 1] * cos_m[:l + 1]
        out[row - l:row] = (pbar[1:l + 1] * sin_m[1:l + 1])[::-1]
    return out


@dataclass(frozen=True)
class FluxMultipoles:
    """Real spherical-harmonic coefficients of a flux distribution."""

    lmax: int
    coefficients: np.ndarray  # ((lmax+1)^2,)

    def coeff(self, l: int, m: int) -> float:
        return float(self.coefficients[lm_index(l, m)])


def multipole_moments(flux, q: SphereQuadrature, lmax: int) -> FluxMultipoles:
    """Multipole coefficients f_lm = sum_nodes w Y_lm flux(node).

    ``flux`` is a callable taking the ``(N, 3)`` array of quadrature nodes
    and returning the ``(N,)`` flux values there.  Requires lmax <= 16 and
    at least 2 lmax + 2 nodes per sphere direction; the Parseval bound
    sum f_lm^2 <= quadrature of flux^2 is verified.

    The sum is the separable transform on the product grid (Driscoll and
    Healy 1994; Schaeffer 2013): the weighted values, one row per ring, are
    summed against 1, cos(m phi) and sin(m phi) in one
    ``(n_theta, n_phi) @ (n_phi, 2 lmax + 1)`` product, and the ring sums
    are contracted with the harmonics on the meridian phi = 0 through the
    n_theta ring nodes, which are the normalised Legendre functions (times
    sqrt(2) for m != 0): one :func:`real_sph_harm` table of n_theta
    columns, not one of N.
    """
    if lmax > 16 or lmax < 0:
        raise ValueError("lmax must lie in 0..16")
    if q.n_theta < 2 * lmax + 2 or q.n_phi < 2 * lmax + 2:
        raise QuadratureTooCoarse(
            f"need n_theta and n_phi >= 2*lmax + 2 = {2 * lmax + 2}, "
            f"got ({q.n_theta}, {q.n_phi})")
    z, phi = q.cos_theta, q.phi
    values = np.asarray(flux(q.nodes), dtype=float)
    if values.shape != q.weights.shape:
        raise ValueError("flux values must match the quadrature nodes")
    # column lmax + m: sin(|m| phi) for m < 0, 1 for m = 0, cos(m phi) for m > 0
    mphi = np.outer(phi, np.arange(1, lmax + 1))
    trig = np.hstack([np.sin(mphi[:, ::-1]), np.ones((phi.size, 1)), np.cos(mphi)])
    ring_sums = ((q.weights * values).reshape(z.size, phi.size) @ trig).T
    # on the meridian phi = 0, Y_l|m| is Pbar_l|m|(z_t), times sqrt(2) for m != 0
    meridian = real_sph_harm(lmax, np.stack([np.sqrt(1.0 - z * z), np.zeros_like(z), z], axis=1))
    l, m = lm_arrays(lmax)
    coeffs = np.einsum("kt,kt->k", meridian[l * l + l + np.abs(m)], ring_sums[lmax + m])
    power = float(np.sum(q.weights * values * values))
    if float(coeffs @ coeffs) > power + 1e-8:
        raise QuadratureTooCoarse(
            "Parseval bound violated; the quadrature cannot resolve this flux")
    return FluxMultipoles(lmax=lmax, coefficients=coeffs)


def total_charge(fm: FluxMultipoles) -> float:
    """Total charge from the monopole coefficient: sqrt(4 pi) f_00."""
    return float(np.sqrt(4.0 * np.pi) * fm.coeff(0, 0))


def sector_signature(k1: ChargeKinematics, k2: ChargeKinematics, lmax: int,
                     q: SphereQuadrature, formula: str = "instantaneous") -> dict:
    """Multipole distance between two charge kinematics, split by l.

    The l = 0 part carries exactly the charge difference |e1 - e2| /
    sqrt(4 pi); a non-zero l >= 1 part for equal charges certifies that the
    two momenta produce distinct flux classes.  The l >= 1 coefficients
    fingerprint the particle kinematics and are not multipoles of the charge
    distribution itself.
    """
    if formula not in ("instantaneous", "retarded"):
        raise ValueError("formula must be 'instantaneous' or 'retarded'")
    fn = flux_instantaneous if formula == "instantaneous" else flux_retarded
    f1 = multipole_moments(lambda n: fn(k1, n), q, lmax)
    f2 = multipole_moments(lambda n: fn(k2, n), q, lmax)
    diff = f1.coefficients - f2.coefficients
    l0 = abs(float(diff[0]))
    l0_expected = abs(k1.e - k2.e) / np.sqrt(4.0 * np.pi)
    lrest = float(np.linalg.norm(diff[1:]))
    return {
        "formula": formula,
        "l0_difference": l0,
        "l0_expected": l0_expected,
        "l0_consistent": bool(abs(l0 - l0_expected) <= 1e-8),
        "l_ge1_norm": lrest,
        "total_norm": float(np.linalg.norm(diff)),
        "distinct": bool(l0 > 1e-8 or lrest > 1e-8),
        "note": ("higher multipoles fingerprint the kinematics, not the charge "
                 "distribution's own moments"),
    }
