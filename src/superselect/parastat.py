"""Permutation symmetry on tensor powers: invariant algebra and truncation.

``n`` identical particles, each with a C^d internal space, carry the obvious
permutation action on (C^d)^(x n).  The observables are everything commuting
with that action.  Each U(g) is a 0/1 permutation matrix of the basis words,
so U(g) E_ij U(g)* = E_{g.i, g.j}: the observables are spanned by the orbit
sums of matrix units under the group's action on index pairs (the orbital
basis of a permutation group's centraliser algebra), and are written down
rather than solved for.  Their commutant is the group-algebra image,
non-abelian for n >= 3, and the block structure is cross-checked against
character projectors built from hard-coded S_2..S_4 tables (partitions
listed in lexicographic order).  Truncating to one multiplicity copy per
block restores an abelian commutant.

Absent blocks (multiplicity zero, e.g. the alternating one for d = 2,
n = 3) are reported explicitly rather than dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegerRank, SizeLimit
from .opalgebra import OperatorAlgebra, _abelian_commutant, algebra_from_span
from .sectors import SectorDecomposition, central_decomposition, truncate

__all__ = [
    "TensorRep",
    "cycle_type",
    "invariant_algebra",
    "character_oracle",
    "parastat_truncation",
    "CHARACTER_TABLES",
]


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths, largest first, of the permutation with image tuple ``perm``."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# Character tables, keyed by particle count.  Rows: (partition, dimension,
# {cycle type: character}); partitions in lexicographic order.
CHARACTER_TABLES: dict[int, list[tuple[tuple[int, ...], int, dict[tuple[int, ...], int]]]] = {
    2: [
        ((1, 1), 1, {(1, 1): 1, (2,): -1}),
        ((2,), 1, {(1, 1): 1, (2,): 1}),
    ],
    3: [
        ((1, 1, 1), 1, {(1, 1, 1): 1, (2, 1): -1, (3,): 1}),
        ((2, 1), 2, {(1, 1, 1): 2, (2, 1): 0, (3,): -1}),
        ((3,), 1, {(1, 1, 1): 1, (2, 1): 1, (3,): 1}),
    ],
    4: [
        ((1, 1, 1, 1), 1, {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1}),
        ((2, 1, 1), 3, {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1}),
        ((2, 2), 2, {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0}),
        ((3, 1), 3, {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1}),
        ((4,), 1, {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1}),
    ],
}


@dataclass(frozen=True)
class TensorRep:
    """Permutation action of S_n on the n-fold tensor power of C^d, built from (n, d).

    ``perms`` is S_n as the image tuples of ``itertools.permutations``, in
    lexicographic order.  Row k of ``images`` is the index map of g =
    ``perms[k]``: it sends the basis word with digits (i_1, ..., i_n) to the
    one with digits (i_{g^-1(1)}, ..., i_{g^-1(n)}).  ``unitaries[k]`` is
    the 0/1 permutation matrix with U(g) e_j = e_{images[k, j]}, a proper
    representation.
    """

    n_particles: int
    d_single: int
    dim: int = field(init=False)
    perms: tuple[tuple[int, ...], ...] = field(init=False)  # S_n, lexicographic
    images: np.ndarray = field(init=False)  # (|G|, dim) word index maps
    unitaries: np.ndarray = field(init=False)  # (|G|, dim, dim)

    def __post_init__(self):
        n, d = self.n_particles, self.d_single
        if not (2 <= n <= 4 and 2 <= d <= 3 and d ** n <= 64):
            raise SizeLimit(
                f"supported range is 2 <= n <= 4, 2 <= d <= 3, d^n <= 64; got n={n}, d={d}")
        dim = d ** n
        grid = np.arange(dim).reshape((d,) * n)
        perms = tuple(itertools.permutations(range(n)))
        images = np.stack([np.transpose(grid, axes=g).ravel() for g in perms])
        unitaries = np.zeros((len(perms), dim, dim), dtype=complex)
        unitaries[np.arange(len(perms))[:, None], images, np.arange(dim)] = 1.0
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "unitaries", unitaries)


def invariant_algebra(rep: TensorRep) -> OperatorAlgebra:
    """Observables of identical particles: the commutant of all permutation unitaries.

    Written down, not solved for.  With U(g) e_j = e_{g.j} a permutation
    matrix, U(g) E_ij U(g)* = E_{g.i, g.j}, so B commutes with every U(g)
    exactly when its entries are constant on the orbits of the index pairs
    (i, j).  Each orbit is labelled by its least flat index ``g.i * dim + g.j``
    over the group, and its indicator divided by sqrt(orbit size) is one basis
    element.  Distinct orbits have disjoint supports, so the basis is exactly
    HS-orthonormal and no rank is decided; the identity is the sum of the
    diagonal orbits' indicators.  The index maps ``rep.images`` are the
    whole of S_n, a group, so the least image is the same across an orbit.
    """
    n = rep.dim
    pairs = rep.images[:, :, None] * n + rep.images[:, None, :]  # flat index of (g.i, g.j)
    labels = pairs.min(axis=0)
    _, orbit, sizes = np.unique(labels.ravel(), return_inverse=True, return_counts=True)
    basis = np.zeros((len(sizes), n * n), dtype=complex)
    basis[orbit, np.arange(n * n)] = 1.0 / np.sqrt(sizes[orbit])
    return OperatorAlgebra(dim=n, basis=basis.reshape(-1, n, n), contains_identity=True)


def character_oracle(rep: TensorRep) -> list[tuple[tuple[int, ...], int, int]]:
    """Isotypic data (partition, irrep dim d, multiplicity ntilde) for every irrep.

    The character projector (d/|G|) sum_g chi(g) U(g) has rank equal to its
    trace, (d/|G|) sum_g chi(g) tr U(g), so no projector is formed; tr U(g)
    is the number of basis words that ``images[k]`` fixes.  The
    multiplicity is rank/d and must be an integer within 0.01.  This is the
    independent oracle against which the spectral sector decomposition is
    validated.
    """
    traces = np.count_nonzero(rep.images == np.arange(rep.dim), axis=1).tolist()
    classes = [cycle_type(g) for g in rep.perms]
    out = []
    for partition, d, chars in CHARACTER_TABLES[rep.n_particles]:
        rank = d / len(traces) * sum(chars[c] * tr for c, tr in zip(classes, traces))
        ntilde = rank / d
        if abs(ntilde - round(ntilde)) > 0.01:
            raise NonIntegerRank(
                f"projector for partition {partition} has rank {rank:.4f}, "
                f"not a multiple of d={d}")
        out.append((partition, d, int(round(ntilde))))
    return out


def parastat_truncation(rep: TensorRep, seed: int = 0) -> dict:
    """Full case study for one (n, d): decomposition, truncation, compatibility.

    Returns a report with the sector table, the character-oracle table, the
    abelian verdicts on the commutant before and after truncation, and the
    truncated dimension (the sum of the sectors' multiplicities ``ntilde``).
    The verdict before truncation is read from the sector multiplicities;
    ``pre_truncation_max_commutator`` is the largest relative commutator
    ``||[U(g), U(h)]|| / (||U(g)|| ||U(h)||)`` of the permutation unitaries,
    which generate that commutant, read from the index maps like the traces
    of :func:`character_oracle`.  U(g) U(h) - U(h) U(g) has a +1 and a -1 in
    each column x with g.h.x != h.g.x and is zero elsewhere, and ||U(g)|| =
    sqrt(dim) (Frobenius norms), so the value is exactly sqrt(2 m) / dim
    for m the largest such count over all pairs; no matrix is formed.  The
    verdict after truncation and its ratio are :func:`truncate`'s.
    """
    dec = decomposition_for(rep, seed)
    pre_abelian = _abelian_commutant(dec)
    v_iso, _, (post, ratio, holds) = truncate(dec, seed)
    oracle = character_oracle(rep)
    present = tuple(sorted((d, nt) for _, d, nt in oracle if nt > 0))
    composed = rep.images[:, rep.images]  # [g, h, x] = g.h.x
    mismatches = np.count_nonzero(composed != composed.transpose(1, 0, 2), axis=2).max()
    return {
        "n_particles": rep.n_particles,
        "d_single": rep.d_single,
        "dim": rep.dim,
        "algebra_dim": dec.algebra.algebra_dim,
        "commutant_dim": dec.commutant.algebra_dim,
        "pre_truncation_abelian": pre_abelian,
        "pre_truncation_max_commutator": float(np.sqrt(2 * mismatches) / rep.dim),
        "sector_table": list(dec.multiset()),
        "oracle_table": [
            {"partition": list(p), "d": d, "ntilde": nt} for p, d, nt in oracle
        ],
        "oracle_agrees": dec.multiset() == present,
        "dim_truncated": int(v_iso.shape[1]),
        "post_truncation_v2": holds,
        "post_truncation_ratio": ratio,
        "post_truncation_commutant_dim": int(post.algebra_dim),
    }


def decomposition_for(rep: TensorRep, seed: int = 0) -> SectorDecomposition:
    """Spectral sector decomposition of the invariant algebra.

    Its commutant is the span of the group unitaries.  The span is closed
    under products and adjoints, ``U(g) U(h) = U(gh)`` and ``U(g)^* =
    U(g^-1)``, and contains the identity, so it is the algebra the
    unitaries generate: their double commutant ``S'' = O'``.
    """
    return central_decomposition(invariant_algebra(rep), seed,
                                 commutant_algebra=algebra_from_span(rep.unitaries))
