"""Galilei arithmetic, the mass multiplier, and the extended classical model.

Units: hbar = 1, masses in arbitrary positive units.  A group element is
(R, v, a, b): rotation, boost velocity, spatial translation, time
translation.  The multiplier exponent M (v1 . R1 a2 + v1^2 b2 / 2) obstructs
any phase redefinition -- on the abelian boost/translation subgroup a
coboundary is symmetric while the exponent is not -- and the obstruction is
linear in the total mass M, so different masses carry inequivalent
multipliers and no common ray representation exists on their direct sum.

Promoting the masses to momenta with conjugate positions lambda_i makes the
centrally extended group act as a proper symmetry of the classical flow;
(x, p) evolve by velocity Verlet and the lambda_i by trapezoidal quadrature
of dV/dm_i - p_i^2 / (2 m_i^2), which never feeds back into (x, p).  One
Verlet loop advances a batch of initial points (a point and its transform,
for the symmetry check); the energy and lambda are array passes over the
stored trajectories after the loop.

Group elements may carry a leading sample axis: a batch of k elements has
R of shape (k, 3, 3), v and a of shape (k, 3) and b of shape (k,), and
:func:`galilei_multiply`, :func:`bargmann_exponent`,
:func:`extended_multiply`, :func:`extended_action` and
:func:`rotation_from_axis_angle` act sample by sample with the same code
that serves a single element.  The seeded sampling checks draw their
elements as such batches and run as one array pass each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSample,
    ShiftNotOnGrid,
    SupportClipped,
    UnstableStep,
)
__all__ = [
    "GalileiElement",
    "ExtendedElement",
    "ExtendedPhasePoint",
    "HarmonicPairPotential",
    "Trajectory",
    "galilei_multiply",
    "rotation_from_axis_angle",
    "random_galilei_element",
    "bargmann_exponent",
    "bargmann_cocycle_check",
    "mass_superselection_report",
    "ray_compose_check",
    "extended_multiply",
    "extended_action",
    "extended_action_composition_check",
    "extended_dynamics",
    "dynamics_symmetry_check",
]

RAY_COMPOSE_TOL = 1e-12  # roundoff bound on the ray composition's largest deviation


def _rotate(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R x for one element or per sample along the leading axis."""
    return (r @ x[..., None])[..., 0]


def _dot(x: np.ndarray, y: np.ndarray):
    """x . y over the last axis; a float for one element."""
    out = np.sum(x * y, axis=-1)
    return float(out) if out.ndim == 0 else out


def rotation_from_axis_angle(axis, angle) -> np.ndarray:
    """Rotation matrix about a (not necessarily unit) axis, by Rodrigues' formula.

    The axis is normalised first, so I + sin(angle) K + (1 - cos(angle)) K^2
    is orthogonal with det +1 to a few ulps, well inside the 1e-12 that
    :class:`GalileiElement` checks.  It is divided by its largest entry
    before its norm is taken, so no axis of finite nonzero scale under- or
    overflows.  ``axis`` of shape
    ``(k, 3)`` with ``angle`` of shape ``(k,)`` gives a ``(k, 3, 3)`` stack;
    a zero axis gives the identity.
    """
    u = np.asarray(axis, dtype=float)
    if u.shape[-1:] != (3,):
        raise ValueError("rotation axis must be a 3-vector")
    c, s = np.cos(angle), np.sin(angle)
    scale = np.max(np.abs(u), axis=-1, keepdims=True)
    zero = scale == 0.0
    u = u / np.where(zero, 1.0, scale)
    u = u / np.where(zero, 1.0, np.linalg.norm(u, axis=-1, keepdims=True))
    k = np.zeros(u.shape[:-1] + (3, 3))
    k[..., 0, 1], k[..., 0, 2], k[..., 1, 2] = -u[..., 2], u[..., 1], -u[..., 0]
    k = k - np.swapaxes(k, -1, -2)
    r = (np.eye(3) + np.asarray(s)[..., None, None] * k
         + np.asarray(1.0 - c)[..., None, None] * (k @ k))
    return np.where(zero[..., None], np.eye(3), r)


@dataclass(frozen=True)
class GalileiElement:
    """(R, v, a, b): rotation, boost velocity, space translation, time translation.

    One element has R (3, 3), v and a (3,) and a float b.  A batch of k
    elements carries a leading sample axis: R (k, 3, 3), v and a (k, 3),
    b (k,); fields given without it are shared by every sample.
    """

    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.R, dtype=float)
        v = np.asarray(self.v, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if r.shape[-2:] != (3, 3) or v.shape[-1:] != (3,) or a.shape[-1:] != (3,):
            raise ValueError("R must be 3 x 3 and v, a 3-vectors")
        lead = np.broadcast_shapes(r.shape[:-2], v.shape[:-1], a.shape[:-1], b.shape)
        # R is checked as given, before it is broadcast, so a shared R is
        # checked once; a contiguous left operand keeps the stacked R^T R on
        # numpy's fast matmul path
        rt = np.ascontiguousarray(np.swapaxes(r, -1, -2))
        orth = np.linalg.norm(rt @ r - np.eye(3), axis=(-2, -1))
        # det as the triple product r0 . (r1 x r2): a few array passes, not a stacked LU
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = np.moveaxis(r, (-2, -1), (0, 1))
        det = a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)
        if np.any(orth > 1e-12) or np.any(det <= 0):
            raise ValueError("R must be a proper rotation (orthogonal, det +1) to 1e-12")
        object.__setattr__(self, "R", np.broadcast_to(r, lead + (3, 3)))
        object.__setattr__(self, "v", np.broadcast_to(v, lead + (3,)))
        object.__setattr__(self, "a", np.broadcast_to(a, lead + (3,)))
        object.__setattr__(self, "b", np.broadcast_to(b, lead) if lead else float(b))


def galilei_multiply(g1: GalileiElement, g2: GalileiElement) -> GalileiElement:
    """(R1 R2, v1 + R1 v2, a1 + R1 a2 + v1 b2, b1 + b2)."""
    return GalileiElement(
        R=g1.R @ g2.R,
        v=g1.v + _rotate(g1.R, g2.v),
        a=g1.a + _rotate(g1.R, g2.a) + g1.v * np.asarray(g2.b)[..., None],
        b=g1.b + g2.b,
    )


def random_galilei_element(rng: np.random.Generator,
                           count: int | None = None) -> GalileiElement:
    """Seeded generic element: axis-angle rotation, components in [-2, 2].

    With ``count`` the draws come as arrays (all axes, then all angles, v,
    a and b) and the result is a batch of ``count`` elements.
    """
    vec = (3,) if count is None else (count, 3)
    axis = rng.standard_normal(vec)
    angle = rng.uniform(-np.pi, np.pi, size=count)
    return GalileiElement(
        R=rotation_from_axis_angle(axis, angle),
        v=rng.uniform(-2.0, 2.0, size=vec),
        a=rng.uniform(-2.0, 2.0, size=vec),
        b=rng.uniform(-2.0, 2.0, size=count),
    )


def bargmann_exponent(mass: float, g1: GalileiElement, g2: GalileiElement):
    """Multiplier exponent M (v1 . R1 a2 + v1^2 b2 / 2) of the mass-M ray representation.

    A float for one pair of elements, an array over the samples of a batch.
    """
    if not (mass > 0 and np.isfinite(mass)):  # NaN fails the comparison
        raise ValueError(f"mass must be positive and finite, got {mass}")
    return mass * (_dot(g1.v, _rotate(g1.R, g2.a)) + 0.5 * _dot(g1.v, g1.v) * g2.b)


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")


def bargmann_cocycle_check(mass, samples: int = 1000, seed: int = 0) -> float:
    """Max cocycle-identity residual of the mass multiplier over seeded triples.

    ``mass`` is one mass or a sequence; one draw of the triples and of the
    products ``g1 g2`` and ``g2 g3`` serves every mass, and the worst
    residual is returned.
    """
    _require_samples(samples)
    rng = np.random.default_rng([seed, 401])
    g1, g2, g3 = (random_galilei_element(rng, samples) for _ in range(3))
    g12, g23 = galilei_multiply(g1, g2), galilei_multiply(g2, g3)
    deltas = (bargmann_exponent(m, g1, g2) - bargmann_exponent(m, g1, g23)
              + bargmann_exponent(m, g12, g3) - bargmann_exponent(m, g2, g3)
              for m in np.atleast_1d(mass))
    return max(float(np.max(np.abs(delta))) for delta in deltas)


def _boost_translation_pairs(rng: np.random.Generator, count: int):
    """Commuting pairs from the abelian subgroup of boosts and space translations.

    Returns two batches of ``count`` elements; row i of each is pair i, drawn
    as (v1, a1, v2, a2).
    """
    draw = rng.uniform(-2.0, 2.0, size=(count, 4, 3))
    return (GalileiElement(v=draw[:, 0], a=draw[:, 1]),
            GalileiElement(v=draw[:, 2], a=draw[:, 3]))


def mass_superselection_report(m1: float, m2: float, samples: int = 100,
                               seed: int = 0) -> dict:
    """Antisymmetry obstructions certifying the mass multipliers inequivalent.

    Evaluates |xi(g1, g2) - xi(g2, g1)| for the mass-m1 exponent, the
    mass-m2 exponent, and their difference over commuting boost/translation
    pairs (plus the canonical x-boost / x-translation pair).  Each exponent
    is linear in its mass, so each obstruction is its mass (m1, m2 and
    |m1 - m2|) times one common factor; each must exceed 0.1 times its own
    mass.  Since coboundaries are symmetric on an abelian subgroup, this
    rules out any common ray representation on the direct sum.  Masses
    equal to within roundoff (|m1 - m2| <= 1e-9 max(m1, m2)) are rejected:
    their difference exponent is mostly rounding error.
    """
    if not all(m > 0 and np.isfinite(m) for m in (m1, m2)):
        raise ValueError(f"masses must be positive and finite, got {m1} and {m2}")
    if abs(m1 - m2) <= 1e-9 * max(m1, m2):
        raise ValueError("mass_superselection_report needs two distinct masses")
    _require_samples(samples)
    rng = np.random.default_rng([seed, 402])
    g1, g2 = _boost_translation_pairs(rng, samples)
    skew = np.abs(_dot(g1.v, g2.a) - _dot(g2.v, g1.a))
    if np.max(skew) < 1e-6:
        raise DegenerateSample(
            "all sampled boost/translation pairs are symmetric to 1e-6; "
            "retry with a different seed")
    canonical = (GalileiElement(v=[1.0, 0.0, 0.0]), GalileiElement(a=[1.0, 0.0, 0.0]))
    exponents = (lambda x, y: bargmann_exponent(m1, x, y),
                 lambda x, y: bargmann_exponent(m2, x, y),
                 lambda x, y: bargmann_exponent(m1, x, y) - bargmann_exponent(m2, x, y))
    # |xi(g1, g2) - xi(g2, g1)| on the canonical pair, once per exponent
    canonical_triple = tuple(abs(xi(*canonical) - xi(*reversed(canonical)))
                             for xi in exponents)
    ob1, ob2, obd = (float(max(c, np.max(np.abs(xi(g1, g2) - xi(g2, g1)))))
                     for c, xi in zip(canonical_triple, exponents))
    return {
        "m1": m1,
        "m2": m2,
        "obstruction_m1": ob1,
        "obstruction_m2": ob2,
        "obstruction_difference": obd,
        "canonical_pair_obstructions": canonical_triple,
        "inequivalent": bool(ob1 > 0.1 * m1 and ob2 > 0.1 * m2
                             and obd > 0.1 * abs(m1 - m2)),
        "consequence": (
            "multipliers of distinct total mass are inequivalent on the abelian "
            "boost/translation subgroup; no single ray representation exists on the "
            "direct sum, so superpositions across masses are excluded"),
    }


def _apply_boost_translation(mass: float, v: float, a: float, grid: np.ndarray,
                             psi: np.ndarray, support_tol: float) -> np.ndarray:
    """One-particle t = 0 transformation: multiply by exp(i M v (x - a)), shift by a."""
    h = grid[1] - grid[0]
    shift = a / h
    steps = int(round(shift))
    if abs(shift - steps) > 1e-9:
        raise ShiftNotOnGrid(f"translation {a} is not an integer multiple of spacing {h}")
    out = np.zeros_like(psi)
    if steps >= 0:
        if steps and np.any(np.abs(psi[len(psi) - steps:]) > support_tol):
            raise SupportClipped("wavefunction support would shift past the grid edge")
        out[steps:] = psi[:len(psi) - steps]
    else:
        if np.any(np.abs(psi[:-steps]) > support_tol):
            raise SupportClipped("wavefunction support would shift past the grid edge")
        out[:steps] = psi[-steps:]
    return np.exp(1j * mass * v * (grid - a)) * out


def ray_compose_check(mass: float, grid, g1: GalileiElement, g2: GalileiElement,
                      psi) -> dict:
    """Composition of two boost/translation transformations on a sampled line.

    Applies the transformation for g2 then g1 and compares with the single
    transformation for g1 g2 times exp(i xi), xi = M v1 a2.  Both elements
    must be pure boost/translations along x (b = 0, R = 1) with shifts on
    the grid; the comparison is exact up to roundoff (``RAY_COMPOSE_TOL``).
    """
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("grid must be a 1-d array with at least two samples")
    h = np.diff(x)
    if np.max(np.abs(h - h[0])) > 1e-12 * abs(h[0]):
        raise ValueError("grid must be uniform")
    wave = np.asarray(psi, dtype=complex)
    if wave.shape != x.shape:
        raise ValueError("psi must be sampled on the grid")
    for g in (g1, g2):
        if g.b != 0.0 or np.linalg.norm(g.R - np.eye(3)) > 1e-12 \
                or np.any(g.v[1:] != 0.0) or np.any(g.a[1:] != 0.0):
            raise ValueError("elements must be boost/translations along x with b = 0")
    support_tol = 1e-14 * float(np.max(np.abs(wave)) or 1.0)

    v1, a1 = float(g1.v[0]), float(g1.a[0])
    v2, a2 = float(g2.v[0]), float(g2.a[0])
    lhs = _apply_boost_translation(
        mass, v1, a1, x,
        _apply_boost_translation(mass, v2, a2, x, wave, support_tol), support_tol)
    xi = mass * v1 * a2
    rhs = np.exp(1j * xi) * _apply_boost_translation(
        mass, v1 + v2, a1 + a2, x, wave, support_tol)
    deviation = float(np.max(np.abs(lhs - rhs)))
    return {
        "exponent": xi,
        "phase": complex(np.exp(1j * xi)),
        "max_deviation": deviation,
        "ok": deviation <= RAY_COMPOSE_TOL,
    }


@dataclass(frozen=True)
class ExtendedElement:
    """(theta, g): element of the central extension by the reals.

    A batch pairs a batched ``g`` with ``theta`` of shape (k,).
    """

    theta: float
    g: GalileiElement


def extended_multiply(e1: ExtendedElement, e2: ExtendedElement,
                      mass: float) -> ExtendedElement:
    """Product with the mass multiplier: (theta1 + theta2 + xi(g1, g2), g1 g2)."""
    return ExtendedElement(
        theta=e1.theta + e2.theta + bargmann_exponent(mass, e1.g, e2.g),
        g=galilei_multiply(e1.g, e2.g),
    )


def extended_action(e: ExtendedElement, xs, lambdas, t, masses):
    """Action of the extension on configurations ({x_i}, {lambda_i}, t).

    Positions map to R x_i + v t + a, time to t + b, and each mass-conjugate
    position picks up -(theta / M + v . R x_i + v^2 t / 2), with M the total
    mass.  Composes exactly with :func:`extended_multiply`.  For a batch of
    k elements, ``xs`` is (k, n, 3), ``lambdas`` (k, n) and ``t`` (k,): one
    configuration per sample, with the masses shared.
    """
    m = np.asarray(masses, dtype=float).reshape(-1)
    g = e.g
    lead = np.shape(g.b)
    try:
        x = np.asarray(xs, dtype=float).reshape(lead + (m.size, 3))
        lam = np.asarray(lambdas, dtype=float).reshape(lead + (m.size,))
    except ValueError:
        raise ValueError("xs, lambdas and masses must have one entry per particle") from None
    if not np.all((m > 0) & np.isfinite(m)):
        raise ValueError("masses must be positive and finite")
    total = float(m.sum())
    tt = np.asarray(t, dtype=float)[..., None]  # broadcasts over the particles
    x_rot = x @ np.swapaxes(g.R, -1, -2)
    v = g.v[..., None, :]
    x_new = x_rot + v * tt[..., None] + g.a[..., None, :]
    lam_new = lam - (np.asarray(e.theta)[..., None] / total + np.sum(x_rot * v, axis=-1)
                     + 0.5 * np.sum(v * v, axis=-1) * tt)
    return x_new, lam_new, t + g.b


def extended_action_composition_check(masses, samples: int = 1000, seed: int = 0) -> float:
    """Max residual of acting with e1 after e2 against acting with e1 e2.

    Draws ``samples`` seeded pairs of extended elements with configurations
    of the given particles and compares the two routes through
    :func:`extended_action` over positions, mass-conjugate positions and
    time, with the product taken by :func:`extended_multiply` at the total
    mass.
    """
    _require_samples(samples)
    m = np.asarray(masses, dtype=float).reshape(-1)
    rng = np.random.default_rng([seed, 403])
    e1 = ExtendedElement(theta=rng.uniform(-2, 2, samples),
                         g=random_galilei_element(rng, samples))
    e2 = ExtendedElement(theta=rng.uniform(-2, 2, samples),
                         g=random_galilei_element(rng, samples))
    xs = rng.uniform(-2, 2, (samples, m.size, 3))
    lams = rng.uniform(-2, 2, (samples, m.size))
    t = rng.uniform(-2, 2, samples)
    x2, l2, t2 = extended_action(e2, xs, lams, t, m)
    x12, l12, t12 = extended_action(e1, x2, l2, t2, m)
    xa, la, ta = extended_action(extended_multiply(e1, e2, float(m.sum())), xs, lams, t, m)
    return float(max(np.max(np.abs(x12 - xa)), np.max(np.abs(l12 - la)),
                     np.max(np.abs(t12 - ta))))


@dataclass(frozen=True)
class ExtendedPhasePoint:
    """Point of the extended phase space: (x_i, p_i, m_i, lambda_i, t)."""

    x: np.ndarray        # (n, 3)
    p: np.ndarray        # (n, 3)
    m: np.ndarray        # (n,)
    lam: np.ndarray      # (n,)
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float).reshape(-1))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        n = self.x.shape[0]
        if self.p.shape[0] != n or self.m.shape[0] != n or self.lam.shape[0] != n:
            raise ValueError("x, p, m, lambda must agree on the particle count")
        if np.any(self.m <= 0) or not all(
                np.all(np.isfinite(f)) for f in (self.x, self.p, self.m, self.lam)):
            raise ValueError("masses must be positive and all fields finite")


def _norm(d: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis.

    Each length is one dot product through the BLAS routine that
    ``np.linalg.norm`` of a single vector takes, so it matches that bit for
    bit (a sum of squares may not: BLAS fuses the multiply-adds).
    """
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _running_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` in index order, as a loop's running total adds.

    ``np.sum`` adds pairwise or in another order, depending on the shape.
    """
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis)


@dataclass(frozen=True)
class HarmonicPairPotential:
    """V = sum_{i<j} k (|x_i - x_j| - L)^2; mass-independent, Galilei-invariant.

    Positions are (n, 3) or carry leading batch axes, (..., n, 3), e.g. a
    batch of configurations or a stored trajectory.  Every pair is evaluated
    at once, with no loop over pairs: :meth:`forces` from the pair-difference
    matrix x_i - x_j summed back onto each particle, :meth:`energy` from the
    pairs i < j.  Each pair term keeps the operation order of a loop over
    the pairs i < j, and the sums over pairs run in that loop's order, so
    the results match such a loop bit for bit.
    """

    k: float = 1.0
    L: float = 1.0

    def __post_init__(self):
        for name in ("k", "L"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"potential {name!r} must be finite, got {getattr(self, name)}")

    def energy(self, x: np.ndarray):
        """V per configuration: a float for (n, 3), an array over the batch axes otherwise."""
        i, j = np.triu_indices(x.shape[-2], 1)
        r = _norm(x[..., i, :] - x[..., j, :])
        # float_power is libm's pow, as Python's float ** is; np.power may round differently
        terms = self.k * np.float_power(r - self.L, 2)
        e = _running_sum(terms, -1) if i.size else np.zeros(x.shape[:-2])
        return float(e) if e.ndim == 0 else e

    def forces(self, x: np.ndarray) -> np.ndarray:
        """-dV/dx_i, shaped as ``x``."""
        d = x[..., :, None, :] - x[..., None, :, :]
        r = _norm(d)
        # the diagonal divides its zero difference by 1; an off-diagonal r = 0 gives NaN
        np.einsum("...ii->...i", r)[...] = 1.0
        pull = (-2.0 * self.k * (r - self.L))[..., None] * d / r[..., None]
        return _running_sum(pull, -2)


def _potential_energy(potential, x: np.ndarray):
    return 0.0 if potential is None else potential.energy(x)


def _potential_forces(potential, x: np.ndarray) -> np.ndarray:
    return np.zeros_like(x) if potential is None else potential.forces(x)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray     # (steps + 1,)
    x: np.ndarray         # (steps + 1, n, 3)
    p: np.ndarray         # (steps + 1, n, 3)
    lam: np.ndarray       # (steps + 1, n)
    m: np.ndarray         # (n,), exactly constant
    energy: np.ndarray    # (steps + 1,), (x, p)-sector energy
    drift: float          # relative drift of the centre-of-mass-frame energy

    def final(self) -> ExtendedPhasePoint:
        return ExtendedPhasePoint(x=self.x[-1], p=self.p[-1], m=self.m,
                                  lam=self.lam[-1], t=float(self.times[-1]))


def extended_dynamics(initial, potential, dt: float, steps: int):
    """Integrate the extended system: velocity Verlet for (x, p), quadrature for lambda.

    ``initial`` is one :class:`ExtendedPhasePoint`, giving one
    :class:`Trajectory`, or a sequence of points with a common particle
    count, giving a tuple with one trajectory per point.  The points form a
    leading batch axis that a single Verlet loop advances, with one force
    evaluation per step for the whole batch; each member's trajectory is
    bit-identical to its solo integration.  The (x, p) energy and lambda are
    not touched inside the loop: each is one array pass over the stored
    trajectory afterwards.  The built-in potentials carry no mass
    dependence, so the lambda integrand is -p_i^2 / (2 m_i^2), accumulated
    by the trapezoidal rule on the Verlet grid as a cumulative sum, which
    adds the increments in the same order as a step-by-step update; the
    masses are constants of motion by construction.

    Each trajectory's ``drift`` is the largest change of its internal
    energy, the (x, p) energy in the centre-of-mass frame, relative to its
    initial value.  The total ``energy`` also holds the centre-of-mass
    kinetic energy ``P^2 / 2M``, a constant that a boost changes at will, so
    a drift relative to it would depend on the Galilei frame; velocity
    Verlet commutes with boosts, so the internal energy does not.  It is
    summed from the centre-of-mass momenta ``p_i - m_i P / M``, not taken as
    ``E - P^2 / 2M``, which cancels badly under a large boost.  Raises
    :class:`UnstableStep` when the drift of any member exceeds 1e-2.
    """
    points = (initial,) if isinstance(initial, ExtendedPhasePoint) else tuple(initial)
    if not (dt > 0 and np.isfinite(dt)):  # NaN fails the comparison
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if potential is not None and not isinstance(potential, HarmonicPairPotential):
        raise ValueError("potential must be None or a HarmonicPairPotential")
    x0 = np.stack([pt.x for pt in points])
    if potential is not None:
        i, j = np.triu_indices(x0.shape[1], 1)
        hit = np.flatnonzero(np.any(_norm(x0[:, i] - x0[:, j]) == 0.0, axis=0))
        if hit.size:
            raise ValueError(f"particles {i[hit[0]]} and {j[hit[0]]} start at the same "
                             "position; the pair force needs a non-zero distance")
    # time-major storage: step k of every member is one contiguous block
    x = np.empty((steps + 1,) + x0.shape)
    p = np.empty_like(x)
    x[0], p[0] = x0, np.stack([pt.p for pt in points])
    m = np.stack([pt.m for pt in points])     # (batch, n)
    minv = 1.0 / m[..., None]
    half_dt2 = 0.5 * dt * dt

    f = _potential_forces(potential, x[0])
    for k in range(steps):
        x[k + 1] = x[k] + dt * p[k] * minv + half_dt2 * f * minv
        f_new = _potential_forces(potential, x[k + 1])
        p[k + 1] = p[k] + 0.5 * dt * (f + f_new)
        f = f_new

    def kinetic(mom):
        return np.sum((mom * mom * minv).reshape(steps + 1, len(points), -1), axis=-1) / 2.0

    pot_energy = _potential_energy(potential, x)
    energy = kinetic(p) + pot_energy
    total_p = p.sum(axis=-2, keepdims=True)  # (steps + 1, batch, 1, 3)
    internal = kinetic(p - m[..., None] * (total_p / m.sum(axis=-1)[:, None, None])) + pot_energy
    drifts = []
    for e in internal.T:
        scale = abs(e[0]) if abs(e[0]) > 1e-12 else 1.0
        drifts.append(float(np.max(np.abs(e - e[0]))) / scale)
        if not (drifts[-1] <= 1e-2):  # catches NaN from blown-up trajectories too
            raise UnstableStep(f"relative internal energy drift {drifts[-1]:.3e} exceeds "
                               "1e-2; reduce dt")
    rate = -np.sum(p * p, axis=-1) / (2.0 * m * m)  # dV/dm_i vanishes for the built-in family
    lam = np.cumsum(np.concatenate([np.stack([pt.lam for pt in points])[None],
                                    0.5 * dt * (rate[:-1] + rate[1:])]), axis=0)
    steps_t = dt * np.arange(steps + 1)
    out = tuple(Trajectory(times=pt.t + steps_t, x=x[:, b], p=p[:, b], lam=lam[:, b],
                           m=m[b], energy=energy[:, b], drift=drifts[b])
                for b, pt in enumerate(points))
    return out[0] if isinstance(initial, ExtendedPhasePoint) else out


def transform_phase_point(e: ExtendedElement, point: ExtendedPhasePoint) -> ExtendedPhasePoint:
    """Extended action on a phase-space point; momenta map to R p_i + m_i v."""
    x_new, lam_new, t_new = extended_action(e, point.x, point.lam, point.t, point.m)
    p_new = point.p @ e.g.R.T + point.m[:, None] * e.g.v
    return ExtendedPhasePoint(x=x_new, p=p_new, m=point.m, lam=lam_new, t=t_new)


def dynamics_symmetry_check(point: ExtendedPhasePoint, element: ExtendedElement,
                            potential, dt: float, steps: int) -> tuple[Trajectory, float]:
    """Evolve a point and its transform; compare transform-then-evolve with evolve-then-transform.

    ``point`` is transformed (configuration by the extended action at its
    time, momenta by R p + m v), and the point and its transform are
    integrated as one :func:`extended_dynamics` batch of ``steps`` steps.
    Returns the point's trajectory and the largest deviation between the
    final state of the transformed run and the transformed final state of
    the point's run.  Time translations are matched automatically because
    the built-in potentials are autonomous.
    """
    traj, transformed = extended_dynamics([point, transform_phase_point(element, point)],
                                          potential, dt, steps)
    expected = transform_phase_point(element, traj.final())
    got = transformed.final()
    return traj, float(max(
        np.max(np.abs(got.x - expected.x)),
        np.max(np.abs(got.p - expected.p)),
        np.max(np.abs(got.lam - expected.lam)),
    ))
