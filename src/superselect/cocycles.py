"""Multiplier exponents on finite groups: cocycles, coboundaries, extensions.

A ray representation composes only up to phases ``exp(i xi(g1, g2))``; the
exponent table must satisfy the additive cocycle identity (strictly, or mod
2 pi) and is trivial exactly when it is a coboundary of some phase
redefinition ``gamma``.  The central extension with elements ``(theta, g)``
absorbs the multiplier into a proper group law.

Real-valued strict cocycles on a finite group are always coboundaries, so
genuinely obstructed multipliers show up here only mod 2 pi (e.g. the
Pauli-type table on the Klein four-group); equivalence classification of
circle-valued multipliers is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotACocycle

__all__ = [
    "FiniteGroup",
    "MultiplierTable",
    "CocycleReport",
    "CoboundaryResult",
    "finite_group",
    "cyclic_group",
    "klein_four_group",
    "symmetric_group_s3",
    "BUILTIN_GROUPS",
    "coboundary",
    "zero_multiplier",
    "pauli_multiplier",
    "check_cocycle",
    "coboundary_solve",
    "extension_product",
]

COCYCLE_TOL = 1e-10
COBOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a multiplication table of element indices."""

    order: int
    table: np.ndarray          # table[i, j] = index of g_i g_j
    identity: int
    inverse: np.ndarray        # inverse[i] = index of g_i^{-1}


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


def coboundary_solve(mult: MultiplierTable, mult_prime: MultiplierTable) -> CoboundaryResult:
    """Solve xi' = xi + delta(gamma) for gamma with gamma(1) = 0, in closed form.

    ``omega = xi' - xi`` is a strict cocycle.  Averaging its cocycle
    identity over ``g3`` gives ``omega = delta(gamma)`` exactly for
    ``gamma(g) = mean_h omega(g, h)`` (Bargmann 1954: every real multiplier
    on a finite group is a coboundary), and ``gamma(1) = 0`` because the
    identity row of ``omega`` is exactly zero.  For inputs that are
    cocycles only to a residual, the average leaves
    ``|delta(gamma) - omega|`` at most the cocycle residual of ``omega``,
    itself at most the sum of the two inputs' residuals.  Returns gamma when
    the residual ``max |delta(gamma) - omega|`` is at most that sum plus
    ``COBOUNDARY_TOL`` (the multipliers are then equivalent); otherwise
    reports that residual.  Both inputs must pass the strict cocycle check.
    Circle-valued (mod 2 pi) equivalence is out of scope.
    """
    if mult.group is not mult_prime.group and not np.array_equal(
            mult.group.table, mult_prime.group.table):
        raise ValueError("multiplier tables live on different groups")
    bound = COBOUNDARY_TOL
    for name, m in (("first", mult), ("second", mult_prime)):
        rep = check_cocycle(m, "strict")
        if not rep.holds:
            raise NotACocycle(
                f"{name} multiplier fails the strict cocycle identity "
                f"(residual {rep.max_residual:.3e})")
        bound += rep.max_residual
    omega = mult_prime.xi - mult.xi
    gamma = omega.mean(axis=1)
    resid = float(np.max(np.abs(coboundary(mult.group, gamma) - omega)))
    if resid <= bound:
        return CoboundaryResult(gamma=gamma, max_residual=resid)
    return CoboundaryResult(gamma=None, max_residual=resid)


def extension_product(e1, e2, mult: MultiplierTable):
    """Product (theta1 + theta2 + xi(g1, g2), g1 g2) in the central extension.

    An element is a pair (theta, index).  Thetas and indices may be arrays
    that broadcast against each other, giving every product element by
    element in one pass.
    """
    th1, i1 = e1
    th2, i2 = e2
    return (th1 + th2 + mult.xi[i1, i2], mult.group.table[i1, i2])

