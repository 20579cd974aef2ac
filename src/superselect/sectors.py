"""Coherent-sector decomposition and truncation.

The ambient space splits into blocks cut out by the minimal projectors of
the observable algebra's center.  On each block the algebra acts as
``1_d (x) M_ntilde`` and its commutant as ``M_d (x) 1_ntilde``; since the
block's projector is central, ``ntilde^2`` and ``d^2`` are traces of that
projector acting on the two algebras, read off their orthonormal bases.  In
the eigenbasis of a generic central element both algebras are block
diagonal, so every block's trace and leak come from one conjugation of each
basis element into that frame, through the block masses the commutant's
component split reads too (Murota, Kanno, Kojima and Kojima 2010).
The blocks with ``d = 1`` are checked irreducible together: the commutant
of a seeded generic pair drawn from the algebra restricted to their sum,
which is never orthonormalised, must be the span of the blocks' identities.
The commutant is the one the caller passes (S'', or the span of a group's
unitaries), else that of a seeded generic pair of the algebra.  Truncation
keeps a single multiplicity copy per block, which restores an abelian
commutant.  The truncated algebra's basis is the image
of the algebra's basis under an HS isometry, so it needs no
orthonormalisation: one product per element, masked to the kept blocks.
The abelian verdict comes from the commutant of a seeded generic pair of it,
not from a second decomposition.  Both checks prove a pair's commutant to be
a span known in advance through one function,
:func:`~superselect.opalgebra._pair_commutant_equals`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonIntegerStructure, PostconditionFailure
from .numkernel import SPAN_TOL, random_hermitian
from .opalgebra import (
    OperatorAlgebra,
    _block_masses,
    _generic_split,
    _pair_commutant,
    _pair_commutant_equals,
    _unit_members,
    center,
    is_abelian,
    span_residual,
)

__all__ = [
    "Sector",
    "SectorDecomposition",
    "central_decomposition",
    "truncate",
]

INTEGER_RESIDUAL = 0.1   # max distance of sqrt(restricted trace) from an integer
CENTRAL_VALUE_SALT = 203  # seeded stream of the Hermitian H behind Sector.central_value
TRACE_CHUNK = 1 << 14     # entries in one temporary of the block masses (256 kB complex)


@dataclass(frozen=True)
class Sector:
    """One coherent block: projector, isometry onto it, and (d, ntilde) data.

    The algebra restricted to the block, ``W^* O W``, and the commutant
    restricted to it, ``W^* O' W``, are not stored; whoever needs them forms
    them from ``isometry`` and the decomposition's algebras.
    """

    projector: np.ndarray   # (n, n) Hermitian idempotent
    isometry: np.ndarray    # (n, block_dim), columns span the block
    block_dim: int
    d: int                  # commutant factor dimension on this block
    ntilde: int             # observable factor dimension on this block
    central_value: float    # Re tr(P H) / block_dim for a seeded Hermitian H (ordering key)


@dataclass(frozen=True)
class SectorDecomposition:
    """Coherent sectors of an algebra, with the commutant and center they came from."""

    dim: int
    sectors: tuple[Sector, ...]
    algebra: OperatorAlgebra
    commutant: OperatorAlgebra
    center: OperatorAlgebra

    def multiset(self) -> tuple[tuple[int, int], ...]:
        """Sorted multiset of (d, ntilde) pairs, for oracle comparisons."""
        return tuple(sorted((s.d, s.ntilde) for s in self.sectors))


def _as_int(value: float, what: str) -> int:
    nearest = int(round(value))
    if abs(value - nearest) > INTEGER_RESIDUAL:
        raise NonIntegerStructure(
            f"{what} = {value:.6f} is not an integer within {INTEGER_RESIDUAL}; "
            "eigenvalue clustering likely failed -- retry with a different seed")
    return nearest


def central_decomposition(o: OperatorAlgebra, seed: int = 0,
                          commutant_algebra: OperatorAlgebra | None = None
                          ) -> SectorDecomposition:
    """Minimal central projectors of an algebra plus per-block (d, ntilde) data.

    The commutant and the center are computed once here and kept on the
    result.  A passed commutant must be an HS-orthonormal basis of the
    algebra's commutant: ``generated_algebra`` of a set is one when ``o`` is
    the set's commutant, and so is ``algebra_from_span`` of a group's
    unitaries when ``o`` is the group's commutant, as their span is closed
    under products and adjoints and so is the double commutant.  Without
    one, the commutant is that of a seeded generic pair of the algebra
    (:func:`_pair_commutant`, salt ``(206,)``).  A pair that generates less
    than the algebra gives too large a commutant, which fails the checks
    below: some block's projector leaks a basis element of it, or its
    trace there is no square, or ``d * ntilde`` exceeds the block's
    dimension.  A one-dimensional center gives one sector,
    the whole space, with no draw.  Otherwise a seeded generic Hermitian
    element of the center is diagonalized and its eigenvalue clusters give
    the minimal central projectors: of up to 16 draws that show one cluster
    per center dimension, :func:`_generic_split` keeps a well separated one.

    The split's frame ``U`` (the identity for a one-dimensional center,
    else the kept draw's eigenvectors) has each block's columns as a
    contiguous range, and the block's isometry ``W`` is a copy of them.  On
    a block, ``ntilde^2`` and ``d^2`` are traces of its projector on the
    algebra and on its commutant: the squared Frobenius norms of the stacks
    ``W^* B W`` over their orthonormal bases, with no rank decision.  Each
    basis is conjugated once, ``U^* B_i U``, in chunks of members of at most
    ``TRACE_CHUNK`` entries per temporary, and every block's trace and leak
    are read from the block masses (:func:`_block_masses`), so K blocks
    take 2 passes over the bases, not 2K, and a 4096-member basis at n = 64
    never has a second copy of its size.  That reading needs the
    projector to be central, so each block first checks that it leaks no
    basis element of either algebra by more than ``SPAN_TOL``: the leak is
    ``||W^* B_i (1 - P)||``, the off-diagonal mass of the block's row.
    The blocks with ``d = 1`` are verified irreducible at once, after the
    loop: with ``W`` the isometry onto their sum, the commutant of ``W^* O
    W``, the direct sum of the blocks' restrictions, is the span of the
    blocks' identities exactly when each is irreducible.  That span is
    proved to be the commutant of a seeded generic pair of the stack ``W^*
    B_i W`` (salt ``(204,)``), with each block identity ``W^* P_k W``
    scaled to unit norm (:func:`_pair_commutant_equals`, which holds the
    argument).  The pair is drawn from the algebra's basis and then
    restricted, ``W^* T_i W``: the same coefficients give the same pair, and
    only two matrices are restricted.

    Each sector's ``central_value`` is ``Re tr(P H) / block_dim`` for one
    Hermitian ``H`` drawn from its own seeded stream, and the sectors come
    in ascending order of it.  It depends on the projector ``P`` alone, not
    on which basis of the commutant or center a solver returned.
    """
    if not o.contains_identity:
        raise ValueError("central_decomposition requires an algebra with identity")
    n = o.dim
    cp = commutant_algebra
    if cp is None:
        _, cp = _pair_commutant(o.basis, seed, (206,))
    z = center(o, commutant_algebra=cp)

    if z.algebra_dim == 1:
        u, groups = np.eye(n, dtype=complex), [np.arange(n)]
    else:
        _, u, groups = _generic_split(z.basis, seed, ((201, a) for a in range(16)),
                                      lambda g: len(g) == z.algebra_dim)
    # per block k, from the block masses of U* B_i U: traces[:, k], the
    # diagonal mass summed over the bases of O and of its commutant, and
    # leak2[k], the largest off-diagonal mass of row k over both, summed with
    # the diagonal zeroed, never as the row minus the diagonal
    starts, nb, uh = [int(g[0]) for g in groups], len(groups), u.conj().T
    step = max(1, TRACE_CHUNK // (n * n))
    traces, leak2 = np.zeros((2, nb)), np.zeros(nb)
    for j, basis in enumerate((o.basis, cp.basis)):
        for c in range(0, len(basis), step):
            mass = _block_masses(uh @ basis[c:c + step] @ u, starts)
            flat = mass.reshape(len(mass), nb * nb)
            traces[j] += flat[:, ::nb + 1].sum(axis=0)
            flat[:, ::nb + 1] = 0.0
            np.maximum(leak2, mass.sum(axis=2).max(axis=0), out=leak2)
    h = random_hermitian(np.random.default_rng([seed, CENTRAL_VALUE_SALT]), n)
    sectors, irreducible = [], []
    for k, idx in enumerate(groups):
        w_iso = u[:, idx]
        block_dim = w_iso.shape[1]
        leak = float(np.sqrt(leak2[k]))
        if leak > SPAN_TOL:
            raise NonIntegerStructure(
                f"sector {k} (block dimension {block_dim}) is not central: its projector "
                f"leaks {leak:.3e} of a basis element out of the block, above {SPAN_TOL:.0e}; "
                "reseed the decomposition")
        ntilde, d = (_as_int(float(np.sqrt(t)), f"sqrt(trace of the projector on the {what})")
                     for t, what in zip(traces[:, k], ("algebra", "commutant")))
        if d * ntilde != block_dim:
            raise NonIntegerStructure(
                f"block of dimension {block_dim} resolved to d={d}, ntilde={ntilde}; "
                "reseed the decomposition")
        if d == 1:
            irreducible.append(w_iso)
        sectors.append(Sector(projector=w_iso @ w_iso.conj().T, isometry=w_iso,
                              block_dim=block_dim, d=d, ntilde=ntilde,
                              central_value=float(np.vdot(w_iso, h @ w_iso).real) / block_dim))
    if irreducible:
        # the blocks' unit identities in the restricted frame: row k of diag
        # holds 1 / sqrt(b_k) on block k
        sizes = [w_iso.shape[1] for w_iso in irreducible]
        diag = np.repeat(np.eye(len(sizes)) / np.sqrt(sizes), sizes, axis=1)
        if not _pair_commutant_equals(o.basis, seed, (204,), diag[:, None] * np.eye(sum(sizes)),
                                      np.hstack(irreducible))[2]:
            raise PostconditionFailure("d = 1 blocks are not irreducible; tolerance pathology")
    sectors.sort(key=lambda sec: sec.central_value)
    return SectorDecomposition(dim=n, sectors=tuple(sectors), algebra=o, commutant=cp,
                               center=z)


def truncate(dec: SectorDecomposition, seed: int = 0
             ) -> tuple[np.ndarray, OperatorAlgebra, tuple[OperatorAlgebra, float, bool]]:
    """Keep one multiplicity copy per sector.

    Returns the isometry ``V``, the truncated algebra ``V^* O V`` and the
    verdict on its commutant, ``(T', ratio, holds)``
    (:func:`_pair_commutant_equals`); when it holds, ``T'`` is the span of
    the scalars on each truncated sector.  Per sector, the
    commutant restricted to the block, ``W^* O' W = M_d (x) 1_ntilde``, is
    formed on the spot from the sector's isometry ``W`` and the
    decomposition's commutant basis (it need not be orthonormal to draw
    from).  Of up to 16 seeded generic Hermitian elements of it that show
    ``d`` spectral clusters of size ``ntilde`` each, :func:`_generic_split`
    keeps a well separated one; its lowest cluster's eigenspace ``V_s = W
    u_s`` is the copy kept.  The
    stacked isometry satisfies ``V^* V = 1`` on the truncated space.

    The truncated basis is written down, not orthonormalised: element ``i``
    is the block diagonal of ``sqrt(d_s) V_s^* B_i V_s`` over the sectors,
    formed as one product ``V^* B_i V`` times a mask that holds ``sqrt(d_s)``
    on the block of sector ``s``'s kept columns and zero off the blocks.
    Each ``P_s`` is central (the decomposition checked its leak), so ``B``
    acts on block ``s`` as ``1_d (x) b_s`` with ``||P_s B P_s||^2 = d_s
    ||b_s||^2`` and ``V_s^* B V_s = b_s``; hence ``B -> (+)_s sqrt(d_s) V_s^*
    B V_s`` is an HS isometry of ``O`` onto ``V^* O V`` and carries an
    orthonormal basis to one.  The basis's Gram matrix is held to the
    identity at 1e-10, and the identity must lie in its span.

    The verdict comes from the commutant ``T'`` of a seeded generic pair of
    the truncated basis (salt 205): it holds when ``T'`` is the span of the
    truncated sector projectors ``V^* P_s V``, each scaled to unit HS norm
    (:func:`_pair_commutant_equals`, which holds the argument), so that
    ``(V^* O V)'`` is that span, abelian, with every truncated block
    irreducible.  A verdict that fails is returned for the caller to
    report.  A verdict that holds is cross-checked by :func:`is_abelian` on
    ``T'``, and a disagreement raises :class:`PostconditionFailure`.
    """
    columns = []
    for sidx, sec in enumerate(dec.sectors):
        restricted_cp = sec.isometry.conj().T @ dec.commutant.basis @ sec.isometry
        _, v, groups = _generic_split(
            restricted_cp, seed, ((202, sidx, a) for a in range(16)),
            lambda g: len(g) == sec.d and all(c.size == sec.ntilde for c in g))
        columns.append(sec.isometry @ v[:, groups[0]])  # lowest spectral cluster
    v_full = np.hstack(columns)
    m = v_full.shape[1]
    if np.max(np.abs(v_full.conj().T @ v_full - np.eye(m))) > 1e-10:
        raise PostconditionFailure("stacked truncation isometry is not isometric")

    # each column's sector, read from the columns kept; sqrt(d_s) on block s
    labels = np.repeat(np.arange(len(columns)), [c.shape[1] for c in columns])
    weight = np.sqrt([sec.d for sec in dec.sectors])[labels]
    mask = np.where(labels[:, None] == labels[None, :], weight[:, None], 0.0)
    basis = (v_full.conj().T @ dec.algebra.basis @ v_full) * mask
    flat = basis.reshape(len(basis), m * m)
    if np.max(np.abs(flat.conj() @ flat.T - np.eye(len(basis)))) > 1e-10:
        raise PostconditionFailure("truncated algebra basis is not HS-orthonormal")
    if span_residual(basis, np.eye(m, dtype=complex)) > SPAN_TOL:
        raise PostconditionFailure("identity not in the truncated algebra's span")
    o_tilde = OperatorAlgebra(dim=m, basis=basis, contains_identity=True)

    projectors = np.stack([v_full.conj().T @ sec.projector @ v_full for sec in dec.sectors])
    verdict = _pair_commutant_equals(basis, seed, (205,), _unit_members(projectors))
    abelian, worst = is_abelian(verdict[0]) if verdict[2] else (True, 0.0)
    if not abelian:
        raise PostconditionFailure(
            "the truncated algebra's commutant is the span of its sector projectors but its "
            f"basis pairs do not commute: relative commutator {worst:.3e}; tolerance pathology")
    return v_full, o_tilde, verdict
