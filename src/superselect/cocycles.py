"""Multiplier exponents on finite groups: cocycles, coboundaries, extensions.

A ray representation composes only up to phases ``exp(i xi(g1, g2))``; the
exponent table must satisfy the additive cocycle identity (strictly, or mod
2 pi) and is trivial exactly when it is a coboundary of some phase
redefinition ``gamma``.  The central extension with elements ``(theta, g)``
absorbs the multiplier into a proper group law.

Real-valued strict cocycles on a finite group are always coboundaries, so
genuinely obstructed multipliers show up here only mod 2 pi (e.g. the
Pauli-type table on the Klein four-group); equivalence classification of
circle-valued multipliers is explicitly unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    NonCommutingPair,
    NotACocycle,
    NotARayRep,
    Unsupported,
)
from .numkernel import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "FiniteGroup",
    "MultiplierTable",
    "CocycleReport",
    "CoboundaryResult",
    "LiftReport",
    "finite_group",
    "cyclic_group",
    "klein_four_group",
    "symmetric_group_s3",
    "BUILTIN_GROUPS",
    "coboundary",
    "zero_multiplier",
    "pauli_multiplier",
    "pauli_projective_rep",
    "check_cocycle",
    "coboundary_solve",
    "antisym_obstruction",
    "extension_product",
    "extension_identity",
    "extension_inverse",
    "lift_check",
]

COCYCLE_TOL = 1e-10
COBOUNDARY_TOL = 1e-10
RAY_TOL = 1e-10


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a multiplication table of element indices."""

    order: int
    table: np.ndarray          # table[i, j] = index of g_i g_j
    identity: int
    inverse: np.ndarray        # inverse[i] = index of g_i^{-1}

    def commutes(self, i: int, j: int) -> bool:
        return self.table[i, j] == self.table[j, i]


def finite_group(table) -> FiniteGroup:
    """Validate a multiplication table: associativity, identity, inverses."""
    t = np.asarray(table, dtype=int)
    n = t.shape[0]
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        raise ValueError(f"bad multiplication table of shape {t.shape}")
    # (gh)k == g(hk) over all triples: t[t[i,j], k] vs t[i, t[j,k]]
    if not np.array_equal(t[t], t[:, t]):
        raise ValueError("multiplication table is not associative")
    ident = None
    for e in range(n):
        if np.array_equal(t[e], np.arange(n)) and np.array_equal(t[:, e], np.arange(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("multiplication table has no identity element")
    inverse = np.full(n, -1, dtype=int)
    for i in range(n):
        hits = np.nonzero(t[i] == ident)[0]
        if hits.size != 1 or t[hits[0], i] != ident:
            raise ValueError(f"element {i} has no two-sided inverse")
        inverse[i] = hits[0]
    return FiniteGroup(order=n, table=t, identity=ident, inverse=inverse)


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return finite_group((idx[:, None] + idx[None, :]) % n)


def klein_four_group() -> FiniteGroup:
    # elements (a, b) in Z2 x Z2, index = 2*a + b
    idx = np.arange(4)
    a, b = idx // 2, idx % 2
    table = 2 * ((a[:, None] + a[None, :]) % 2) + (b[:, None] + b[None, :]) % 2
    return finite_group(table)


def symmetric_group_s3() -> FiniteGroup:
    from itertools import permutations
    elems = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    table = np.zeros((6, 6), dtype=int)
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            table[i, j] = index[tuple(g[h[k]] for k in range(3))]
    return finite_group(table)


BUILTIN_GROUPS: dict[str, Callable[[], FiniteGroup]] = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z2xZ2": klein_four_group,
    "S3": symmetric_group_s3,
}


@dataclass(frozen=True)
class MultiplierTable:
    """Real multiplier exponents xi(g1, g2), normalized to vanish on the identity."""

    group: FiniteGroup
    xi: np.ndarray  # (order, order) float, radians

    def __post_init__(self):
        e = self.group.identity
        if np.any(self.xi[e, :] != 0.0) or np.any(self.xi[:, e] != 0.0):
            raise ValueError("multiplier must satisfy xi(1, g) = xi(g, 1) = 0 exactly")


def zero_multiplier(group: FiniteGroup) -> MultiplierTable:
    return MultiplierTable(group=group, xi=np.zeros((group.order, group.order)))


def coboundary(group: FiniteGroup, gamma) -> np.ndarray:
    """Table of gamma(g1) - gamma(g1 g2) + gamma(g2) for a phase function gamma."""
    g = np.asarray(gamma, dtype=float)
    if g.shape != (group.order,):
        raise ValueError("gamma must assign one real to each group element")
    if g[group.identity] != 0.0:
        raise ValueError("gamma must vanish on the identity")
    return g[:, None] - g[group.table] + g[None, :]


def pauli_multiplier() -> MultiplierTable:
    """The obstructed mod-2pi multiplier pi * b1 * a2 on the Klein four-group."""
    group = klein_four_group()
    idx = np.arange(4)
    a, b = idx // 2, idx % 2
    xi = np.pi * np.outer(b, a).astype(float)
    return MultiplierTable(group=group, xi=xi)


def pauli_projective_rep() -> dict[int, np.ndarray]:
    """Klein four-group unitaries X^a Z^b realizing the Pauli-type multiplier."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    rep = {}
    for i in range(4):
        a, b = i // 2, i % 2
        rep[i] = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
    return rep


@dataclass(frozen=True)
class CocycleReport:
    holds: bool
    max_residual: float
    mode: str


def _cocycle_residuals(xi: np.ndarray, table: np.ndarray) -> np.ndarray:
    # delta xi (g1, g2, g3) = xi(g1,g2) - xi(g1, g2 g3) + xi(g1 g2, g3) - xi(g2, g3)
    return xi[:, :, None] - xi[:, table] + xi[table] - xi[None, :, :]


def check_cocycle(mult: MultiplierTable, mode: str = "strict") -> CocycleReport:
    """Evaluate the cocycle identity over all |G|^3 triples.

    ``strict`` demands the residual vanish as a real number; ``mod2pi``
    demands it vanish up to integer multiples of 2 pi.
    """
    if mode not in ("strict", "mod2pi"):
        raise ValueError(f"mode must be 'strict' or 'mod2pi', got {mode!r}")
    delta = _cocycle_residuals(mult.xi, mult.group.table)
    if mode == "mod2pi":
        delta = delta - 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
    resid = float(np.max(np.abs(delta)))
    return CocycleReport(holds=resid <= COCYCLE_TOL, max_residual=resid, mode=mode)


@dataclass(frozen=True)
class CoboundaryResult:
    gamma: Optional[np.ndarray]  # None when the tables are not strictly equivalent
    max_residual: float

    @property
    def equivalent(self) -> bool:
        return self.gamma is not None


def coboundary_solve(mult: MultiplierTable, mult_prime: MultiplierTable,
                     tol: ToleranceConfig = DEFAULT_TOL,
                     mode: str = "strict") -> CoboundaryResult:
    """Solve xi' = xi + delta(gamma) for gamma with gamma(1) = 0, in closed form.

    ``omega = xi' - xi`` is a strict cocycle.  Averaging its cocycle
    identity over ``g3`` gives ``omega = delta(gamma)`` exactly for
    ``gamma(g) = mean_h omega(g, h)`` (Bargmann 1954: every real multiplier
    on a finite group is a coboundary), and ``gamma(1) = 0`` because the
    identity row of ``omega`` is exactly zero.  Returns gamma when the
    residual ``max |delta(gamma) - omega|`` is at most 1e-10 (the
    multipliers are then equivalent); otherwise reports that residual.
    Both inputs must pass the strict cocycle check.  Circle-valued (mod 2 pi)
    equivalence is out of scope and raises :class:`Unsupported`.
    """
    if mode == "mod2pi":
        raise Unsupported("equivalence of circle-valued multipliers is not classified here")
    if mult.group is not mult_prime.group and not np.array_equal(
            mult.group.table, mult_prime.group.table):
        raise ValueError("multiplier tables live on different groups")
    for name, m in (("first", mult), ("second", mult_prime)):
        rep = check_cocycle(m, "strict")
        if not rep.holds:
            raise NotACocycle(
                f"{name} multiplier fails the strict cocycle identity "
                f"(residual {rep.max_residual:.3e})")
    omega = mult_prime.xi - mult.xi
    gamma = omega.mean(axis=1)
    resid = float(np.max(np.abs(coboundary(mult.group, gamma) - omega)))
    if resid <= COBOUNDARY_TOL:
        return CoboundaryResult(gamma=gamma, max_residual=resid)
    return CoboundaryResult(gamma=None, max_residual=resid)


def antisym_obstruction(xi_eval: Callable, pairs, commutes: Callable) -> float:
    """Largest |xi(a, b) - xi(b, a)| over supplied commuting pairs.

    On commuting pairs every coboundary is symmetric, so a non-zero value
    certifies that the multiplier is not a coboundary; applied to a
    difference of two multipliers it certifies their inequivalence.
    """
    worst = 0.0
    for g1, g2 in pairs:
        if not commutes(g1, g2):
            raise NonCommutingPair(f"pair ({g1!r}, {g2!r}) does not commute")
        worst = max(worst, abs(float(xi_eval(g1, g2)) - float(xi_eval(g2, g1))))
    return worst


def extension_identity(mult: MultiplierTable) -> tuple[float, int]:
    return (0.0, mult.group.identity)


def extension_product(e1: tuple[float, int], e2: tuple[float, int],
                      mult: MultiplierTable) -> tuple[float, int]:
    """Product (theta1 + theta2 + xi(g1, g2), g1 g2) in the central extension."""
    th1, i1 = e1
    th2, i2 = e2
    return (th1 + th2 + float(mult.xi[i1, i2]), int(mult.group.table[i1, i2]))


def extension_inverse(e: tuple[float, int], mult: MultiplierTable) -> tuple[float, int]:
    th, i = e
    j = int(mult.group.inverse[i])
    return (-th - float(mult.xi[i, j]), j)


@dataclass(frozen=True)
class LiftReport:
    holds: bool
    max_ray_residual: float
    max_lift_residual: float
    mode: str


def lift_check(rep: dict[int, np.ndarray], mult: MultiplierTable,
               mode: str = "strict", samples: int = 64,
               tol: ToleranceConfig = DEFAULT_TOL) -> LiftReport:
    """Verify that theta-augmented unitaries represent the central extension.

    The unitaries must first form a genuine ray representation for the given
    multiplier (checked over all pairs; failure raises :class:`NotARayRep`),
    and the multiplier must pass the cocycle identity in the requested mode.
    Then exp(i theta) U_g is checked to compose according to the extension
    product over seeded (theta, g) samples.
    """
    group = mult.group
    n = group.order
    if sorted(rep) != list(range(n)):
        raise ValueError("rep must map every group index to a unitary")
    worst_ray = 0.0
    for i in range(n):
        for j in range(n):
            lhs = rep[i] @ rep[j]
            rhs = np.exp(1j * mult.xi[i, j]) * rep[group.table[i, j]]
            worst_ray = max(worst_ray, float(np.linalg.norm(lhs - rhs)))
    if worst_ray > RAY_TOL:
        raise NotARayRep(
            f"unitaries miss the ray composition law by {worst_ray:.3e}")
    cocycle = check_cocycle(mult, mode)
    if not cocycle.holds:
        raise NotACocycle(
            f"multiplier fails the {mode} cocycle identity "
            f"(residual {cocycle.max_residual:.3e})")

    rng = tol.rng(301)
    worst_lift = 0.0
    for _ in range(samples):
        th1, th2 = rng.uniform(-np.pi, np.pi, size=2)
        i1, i2 = rng.integers(0, n, size=2)
        lhs = (np.exp(1j * th1) * rep[i1]) @ (np.exp(1j * th2) * rep[int(i2)])
        th12, i12 = extension_product((float(th1), int(i1)), (float(th2), int(i2)), mult)
        rhs = np.exp(1j * th12) * rep[i12]
        worst_lift = max(worst_lift, float(np.linalg.norm(lhs - rhs)))
    return LiftReport(holds=worst_lift <= RAY_TOL, max_ray_residual=worst_ray,
                      max_lift_residual=worst_lift, mode=mode)
