"""Commutant calculus on finite-dimensional *-algebras of complex matrices.

An algebra lives here as a Hilbert-Schmidt-orthonormal basis inside the
ambient ``n x n`` matrix algebra, so every structural question (commutant,
center, "is this maximal abelian") reduces to numerical rank and span
comparisons.

The commutant routine first restricts to the block pattern of one generic
Hermitian combination of the generators (everything commuting with the set
must commute with that combination), then runs the stacked commutator
nullspace solve inside that pattern and verifies the result against every
generator, augmenting the constraint set until verification passes.  The
reduction is exact -- the pattern can only over-approximate the commutant --
and keeps thousand-algebra sweeps fast.

Inside the pattern the constraints couple two eigenvalue clusters only
through the blocks of the constraint members between them, and these
typically vanish between sectors.  The nullspace is therefore solved one
connected component of coupled clusters at a time, on that component's own
rows and columns.  Murota, Kanno, Kojima and Kojima (2010) use the same
decoupling for block-diagonalising matrix *-algebras.  A component whose
constraints are below the cutoff is null in full (every member of O is a
scalar on a d = 1 sector, and the scalar input's one component holds all
4096 units at n = 64).  Its answer is its matrix units ``|r><c|``, and
everything about them has a closed form: the constraint norm that finds it
null, its verification against every member and its rotation back to the
outer products ``v_r v_c*``, so it builds no constraint matrix, identity or
product.  The other components are solved by an SVD of their constraint
matrix's triangular factor (:func:`~superselect.numkernel.orthonormal_nullspace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ClosureMismatch,
    DegenerateGenericElement,
    DimensionMismatch,
    PostconditionFailure,
)
from .numkernel import (
    MEMBER_TOL,
    RANK_TOL,
    SPAN_TOL,
    as_complex_matrix,
    cluster_eigenvalues,
    orthonormal_columns_extend,
    orthonormal_nullspace,
)

if TYPE_CHECKING:
    from .sectors import SectorDecomposition

__all__ = [
    "OperatorSet",
    "OperatorAlgebra",
    "DiracReport",
    "operator_set",
    "star_completion",
    "algebra_from_span",
    "commutant",
    "generated_algebra",
    "center",
    "is_abelian",
    "check_dirac",
    "span_residual",
    "span_equal",
]

ABELIAN_TOL = 1e-8  # relative commutator norm below which a pair counts as commuting
# smallest relative gap between the eigenvalue clusters of a kept generic element
SEED_SEPARATION = 1e-3
# fraction of the commutant's nullspace cutoff above which an inter-cluster
# block of a constraint member couples two eigenvalue clusters
JOIN_FRACTION = 1e-2
# entries in one temporary of the commutant's verification (64 kB complex)
VERIFY_CHUNK = 1 << 12


@dataclass(frozen=True)
class OperatorSet:
    """A named collection of same-dimension complex matrices (raw observables).

    ``members`` is stacked with shape ``(k, n, n)``.  ``self_adjoint_closed``
    records whether the adjoint of every member already lies in the linear
    span of the members.
    """

    dim: int
    members: np.ndarray
    names: tuple[str, ...]
    self_adjoint_closed: bool

    def __len__(self) -> int:
        return self.members.shape[0]


@dataclass(frozen=True)
class OperatorAlgebra:
    """A *-algebra given by a Hilbert-Schmidt orthonormal basis.

    Invariants: the basis is orthonormal to 1e-10, closed under adjoints and
    products within tolerance, and the identity lies in its span.
    """

    dim: int
    basis: np.ndarray  # (q, n, n), HS-orthonormal
    contains_identity: bool

    @property
    def algebra_dim(self) -> int:
        return self.basis.shape[0]


def operator_set(mats, names=None) -> OperatorSet:
    """Build a validated OperatorSet from an iterable of square matrices."""
    mats = [as_complex_matrix(m, f"operator {i}") for i, m in enumerate(mats)]
    if not mats:
        raise ValueError("operator set must contain at least one matrix")
    n = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != n:
            raise DimensionMismatch("all operators must share one dimension")
    members = np.stack(mats)
    if names is None:
        names = tuple(f"op{i}" for i in range(len(mats)))
    else:
        names = tuple(names)
        if len(names) != len(mats):
            raise ValueError("number of names must match number of operators")
    # Decide *-closure on the unit members, as commutant does: the
    # orthonormalisation cutoff is relative to the largest member, so a
    # member many decades smaller would otherwise drop out and its missing
    # adjoint go unseen.
    unit = _unit_members(members)
    closed = _max_span_residual(
        _orthonormalize_stack(unit), unit.conj().transpose(0, 2, 1)) <= RANK_TOL
    return OperatorSet(dim=n, members=members, names=names, self_adjoint_closed=closed)


def star_completion(s: OperatorSet) -> OperatorSet:
    """Append adjoints unless the span is already *-closed."""
    if s.self_adjoint_closed:
        return s
    adj = s.members.conj().transpose(0, 2, 1)
    members = np.concatenate([s.members, adj])
    names = s.names + tuple(f"{name}*" for name in s.names)
    return OperatorSet(dim=s.dim, members=members, names=names, self_adjoint_closed=True)


def algebra_from_span(mats) -> OperatorAlgebra:
    """Orthonormalize a spanning set into an OperatorAlgebra (no closure applied)."""
    mats = [as_complex_matrix(m) for m in mats]
    if not mats:
        raise ValueError("algebra_from_span needs at least one matrix")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats[1:]):
        raise DimensionMismatch("all matrices must share one dimension")
    basis = _orthonormalize_stack(np.stack(mats))
    ident = span_residual(basis, np.eye(n, dtype=complex)) <= SPAN_TOL
    return OperatorAlgebra(dim=n, basis=basis, contains_identity=bool(ident))


# ---------------------------------------------------------------------------
# span utilities

def _unit_members(members: np.ndarray) -> np.ndarray:
    """The non-zero members of a ``(k, n, n)`` stack, each scaled to unit HS norm.

    The span is unchanged.  A stack with no non-zero member is returned as
    it is.
    """
    norms = np.linalg.norm(members.reshape(len(members), -1), axis=1)
    nonzero = norms > 0
    if not nonzero.any():
        return members
    return members[nonzero] / norms[nonzero, None, None]


def _orthonormalize_stack(mats: np.ndarray) -> np.ndarray:
    k, n, _ = mats.shape
    q = orthonormal_columns_extend(np.zeros((n * n, 0), dtype=complex),
                                   mats.reshape(k, n * n).T)
    return q.T.reshape(-1, n, n)


def span_residual(basis: np.ndarray, mat: np.ndarray) -> float:
    """Frobenius distance from ``mat`` to the span of an orthonormal basis stack."""
    return _max_span_residual(basis, mat[None])


def _max_span_residual(basis: np.ndarray, mats: np.ndarray) -> float:
    """Largest projection residual of ``mats`` onto the span of an orthonormal basis stack.

    ``mats`` holds at least one matrix.  An empty basis spans only zero, so
    each residual is then the full norm.  The worst residual is picked by its
    squared norm and then measured as one flat vector, so a single matrix
    gets ``np.linalg.norm`` of its residual bit for bit, as reports print it.
    The coefficients ``v q*`` are formed as ``(q v*)*``, so only the matrices
    are conjugated, not a copy of the basis (256 MB for 4096 members at
    n = 64).
    """
    nn = mats.shape[-2] * mats.shape[-1]
    q = basis.reshape(basis.shape[0], nn)
    v = mats.reshape(mats.shape[0], nn)
    return _residual_norm(v, (q @ v.conj().T).conj().T, q)


def span_equal(a: OperatorAlgebra, b: OperatorAlgebra) -> bool:
    """Span equality of two algebras: equal dimension and mutual containment.

    One Gram matrix G = Q_b Q_a* of the orthonormal bases serves both
    projection residuals, Q_b - G Q_a and Q_a - G* Q_b, each held to
    ``SPAN_TOL``, as :func:`_max_span_residual` is held elsewhere.  Two
    algebras of dimension n^2 are equal without one: n^2 HS-orthonormal
    members span all of M_n, so no direction can lie outside either span.

    It decides the witness's ``A = A'`` in :func:`check_dirac` and
    acceptance criterion 1's triple commutant, and the benchmark's layer
    trace times it; the witness's is the one span comparison a command
    makes.  Every other cross-check against a pair's commutant reads
    membership from the pair instead (:func:`_pair_commutant_equals`).
    """
    if a.algebra_dim != b.algebra_dim or a.dim != b.dim:
        return False
    nn = a.dim * a.dim
    if a.algebra_dim in (0, nn):  # nothing to compare, or both bases span all of M_n
        return True
    qa, qb = a.basis.reshape(-1, nn), b.basis.reshape(-1, nn)
    gram = qb @ qa.conj().T
    return (_residual_norm(qb, gram, qa) <= SPAN_TOL
            and _residual_norm(qa, np.conj(gram, out=gram).T, qb) <= SPAN_TOL)


def _residual_norm(target: np.ndarray, gram: np.ndarray, basis: np.ndarray) -> float:
    """Norm of the largest row of ``target - gram @ basis``.

    The difference is written over the product, so it takes no memory of
    its own.  The row is picked by its squared norm and measured with
    ``np.linalg.norm``.
    """
    resid = gram @ basis
    np.subtract(target, resid, out=resid)
    rv = resid.view(float)
    return float(np.linalg.norm(resid[np.argmax(np.einsum("ij,ij->i", rv, rv))]))


# ---------------------------------------------------------------------------
# commutant

def _generic_hermitian_combo(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded generic Hermitian element of the real span of members + adjoints.

    ``sum_k c1_k (M_k + M_k*) / 2 + c2_k (M_k - M_k*) / 2i`` is ``y + y*`` for
    ``y = sum_k (c1 - i c2)_k M_k / 2``, one matrix product over the
    members: the one ``np.tensordot`` forms, bit for bit, without its Python
    overhead, which small inputs feel.
    """
    k, n, _ = members.shape
    c1, c2 = rng.standard_normal(k), rng.standard_normal(k)
    y = np.dot(0.5 * (c1 - 1j * c2)[None], members.reshape(k, n * n)).reshape(n, n)
    return y + y.conj().T


def _generic_split(members: np.ndarray, seed: int, salts, accept):
    """``(w, v, groups)`` of a seeded generic element whose clusters pass ``accept``.

    Per salt, in order, the element drawn from ``default_rng([seed, *salt])``
    is diagonalized and its ascending eigenvalues clustered at ``CLUSTER_TOL``.
    Of the draws that pass, the first whose clusters lie at least
    ``SEED_SEPARATION`` apart (:func:`_cluster_separation`) is kept, or else
    the best separated one: an eigenvector whose cluster lies a relative gap
    ``s`` from the next carries roundoff of about ``eps / s`` into the other
    cluster (Davis-Kahan), which a rank decision at ``RANK_TOL`` can read.
    When no draw passes, :class:`DegenerateGenericElement` names the last salt.
    """
    splits = []
    for salt in salts:
        rng = np.random.default_rng([seed, *salt])
        w, v = np.linalg.eigh(_generic_hermitian_combo(members, rng))
        groups = cluster_eigenvalues(w)
        if accept(groups):
            splits.append((w, v, groups))
            if _cluster_separation(splits[-1]) >= SEED_SEPARATION:
                break
    if splits:
        return max(splits, key=_cluster_separation)
    raise DegenerateGenericElement(
        f"no generic element split as required; the last draw (salt {salt}) gave "
        f"clusters of sizes {[int(g.size) for g in groups]}")


def _cluster_separation(split) -> float:
    """Smallest gap between adjacent eigenvalue clusters over the spectral diameter."""
    w, _, groups = split
    if len(groups) < 2:
        return np.inf
    return min(w[g[0]] - w[g[0] - 1] for g in groups[1:]) / (w[-1] - w[0])


def _pattern_constraints(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of the map (pattern coords) -> vec([A, B]) over a ``(k, n, n)`` member stack.

    The pattern basis element for pair ``(a, b)`` is the matrix unit
    ``|a><b|``; its commutator with A has column ``b`` equal to ``A[:, a]``
    and row ``a`` equal to ``-A[b, :]``.  Rows are member-major, each
    member's ``n^2`` rows in the order of ``vec``.
    """
    k, n, _ = a.shape
    p = rows.size
    j, x = np.arange(p)[None, :], np.arange(n)[:, None]
    out = np.zeros((k, n, n, p), dtype=complex)
    out[:, x, cols[None, :], j] = a[:, :, rows]
    out[:, rows[None, :], x, j] -= a[:, cols, :].transpose(0, 2, 1)
    return out.reshape(k * n * n, p)


def _block_masses(stack: np.ndarray, starts) -> np.ndarray:
    """Squared Frobenius norms of the blocks of each member of a ``(m, n, n)`` stack.

    The blocks are cut at the ascending indices ``starts`` (the first is 0)
    on both sides, so entry ``[i, k, l]`` of the ``(m, K, K)`` result is
    ``||X_i[k, l]||_F^2`` for the ``K`` contiguous index ranges.  The
    commutant reads its coupled clusters from them
    (:func:`_coupled_components`), and the decomposition its sectors'
    traces and leaks (:func:`~superselect.sectors.central_decomposition`).
    """
    return np.add.reduceat(np.add.reduceat(stack.real ** 2 + stack.imag ** 2, starts, axis=1),
                           starts, axis=2)


def _coupled_components(active: np.ndarray, groups, threshold: float):
    """``(perm, sizes)``: the connected components of the clusters the constraints couple.

    ``groups`` are the eigenvalue clusters, contiguous ascending index
    ranges.  Clusters ``k`` and ``l`` are joined when some member of the
    ``(m, n, n)`` stack ``active`` (in the eigenbasis the clusters come
    from) has an inter-cluster block ``A_kl`` or ``A_lk`` of Frobenius norm
    above ``threshold`` (:func:`_block_masses`).  ``perm`` orders the
    indices component by component, in order of each component's first
    cluster and ascending within it; ``sizes`` are the components' numbers
    of indices.
    """
    mass = _block_masses(active, [int(g[0]) for g in groups])
    linked = (mass > threshold ** 2).any(axis=0)
    reach = linked | linked.T | np.eye(len(groups), dtype=bool)
    for _ in range((len(groups) - 1).bit_length()):  # each squaring doubles the path length
        reach = reach @ reach
    # each index is labelled by the lowest cluster its own cluster reaches
    comp = np.repeat(reach.argmax(axis=1), [g.size for g in groups])
    sizes = np.bincount(comp)
    return np.argsort(comp, kind="stable"), sizes[sizes > 0]


def _unit_residuals(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``||[A_i, |r_j><c_j|]||_F^2`` for each member ``A_i`` of a stack and each unit ``j``.

    The commutator of ``A`` with the matrix unit ``|r><c|`` has column ``c``
    equal to ``A[:, r]`` and row ``r`` equal to ``-A[c, :]``, meeting at
    ``A_rr - A_cc``, so its squared Frobenius norm is ``sum_{x != r}
    |A_xr|^2 + sum_{y != c} |A_cy|^2 + |A_rr - A_cc|^2``.  Both sums are
    taken with the diagonal zeroed, never as ``||A e_r||^2 - |A_rr|^2``: on
    a near-scalar member that difference cancels to a relative error of
    about ``sqrt(eps)``, above ``RANK_TOL``.  ``a`` is a ``(k, n, n)``
    stack and ``rows``, ``cols`` the ``p`` units' indices; returns ``(k, p)``.
    """
    k, n, _ = a.shape
    mass = np.abs(a) ** 2
    mass.reshape(k, n * n)[:, ::n + 1] = 0.0  # the diagonal
    diag = np.diagonal(a, axis1=1, axis2=2)
    return (mass.sum(axis=1)[:, rows] + mass.sum(axis=2)[:, cols]
            + np.abs(diag[:, rows] - diag[:, cols]) ** 2)


def _solve_components(active: np.ndarray, groups, scale: float):
    """``(perm, blocks)``: the commutant candidates, one coupled component at a time.

    In the eigenbasis of the generic element the candidates are block
    diagonal over the clusters, and ``[A, B] = 0`` on the block pair
    ``(k, l)`` reads ``A_kl B_ll - B_kk A_kl = 0``: it ties ``B_kk`` to
    ``B_ll`` only through ``A_kl``.  Each component of the clusters that
    the active members couple (:func:`_coupled_components`, at
    ``JOIN_FRACTION`` of the nullspace cutoff) is solved on its own rows
    (both indices inside it) and its own pattern columns.  The rows between
    components are never built: each lies below the join threshold, and by
    Weyl's inequality dropping them moves no singular value by more than
    their norm, so no rank decision away from the cutoff changes.

    A component whose constraint block has Frobenius norm at most the cutoff
    is null in full (``sigma_max <= ||C||_F``).  That norm is read in closed
    form, the sum over the component's active members and pattern units of
    :func:`_unit_residuals` on its own rows and columns, so such a component
    builds no constraint matrix and takes its matrix units as they are;
    only the others reach :func:`_pattern_constraints` and the SVD.

    ``perm`` orders the eigenbasis so that each component is a contiguous
    range ``lo:hi``; ``blocks`` holds ``(lo, hi, cands)`` in that order,
    with ``cands`` either the solved candidates, of shape ``(q, hi - lo,
    hi - lo)``, or, for a null component, its ``q`` matrix units
    ``|r><c|`` as a ``(q, 2)`` integer array of ``(r, c)`` inside the block.
    """
    cutoff = RANK_TOL * scale
    perm, sizes = _coupled_components(active, groups, JOIN_FRACTION * cutoff)
    labels = np.repeat(np.arange(len(groups)), [g.size for g in groups])[perm]
    active = active[:, perm[:, None], perm]
    blocks, lo = [], 0
    for hi in np.cumsum(sizes).tolist():
        lab = labels[lo:hi]
        rows, cols = np.nonzero(lab[:, None] == lab[None, :])
        a = active[:, lo:hi, lo:hi]
        if np.sqrt(_unit_residuals(a, rows, cols).sum()) <= cutoff:
            blocks.append((lo, hi, np.stack([rows, cols], axis=1)))
        else:
            coeffs = orthonormal_nullspace(_pattern_constraints(a, rows, cols), scale=scale)
            cands = np.zeros((coeffs.shape[1], hi - lo, hi - lo), dtype=complex)
            cands[:, rows, cols] = coeffs.T
            blocks.append((lo, hi, cands))
        lo = hi
    return perm, blocks


def _verify_commutes(members: np.ndarray, blocks):
    """``(member, ratio)``: the largest relative commutator residual of the candidates.

    ``members`` and ``blocks`` are in the permuted eigenbasis of
    :func:`_solve_components`; each candidate lives on its ``lo:hi`` block.
    With ``B`` on that block, ``AB`` fills the columns ``lo:hi`` and ``BA``
    the rows ``lo:hi``, so the commutator costs two thin products, each one
    GEMM over a chunk of members and a chunk of the block's candidates.  A
    candidate chunk holds as many candidates as keep one member's products
    with them under ``VERIFY_CHUNK`` entries, and a member chunk as many
    members as keep the products with that candidate chunk under it; each
    holds at least one.  So no temporary exceeds ``max(VERIFY_CHUNK, n m)``
    entries, whatever the number of candidates.  The matrix units of a null
    component (a ``(q, 2)`` block of ``(r, c)``, 4096 of them for the scalar
    input's commutant at n = 64) take no product: their residuals are the
    closed form :func:`_unit_residuals` over all ``n`` rows and columns of
    every member, in ``k (n^2 + q)`` entries.  Every commutator norm in the
    package comes from here: besides the commutant's verification,
    :func:`_max_commutator` passes a stack as its own candidates, for
    :func:`is_abelian`, the two reported commutator maxima and the
    precondition of :func:`~superselect.diracsets.interpolate_commuting`,
    and :func:`_pair_commutant_equals` reads membership in a pair's
    commutant from the pair.
    """
    k, n, _ = members.shape
    worst = np.zeros(k)
    for lo, hi, block in blocks:
        if block.ndim == 2:  # matrix units |lo + r><lo + c| of a null component
            r2 = _unit_residuals(members, lo + block[:, 0], lo + block[:, 1])
            np.maximum(worst, r2.max(axis=1), out=worst)
            continue
        m = block.shape[-1]
        per_chunk = max(1, VERIFY_CHUNK // (n * m))
        for b in range(0, len(block), per_chunk):
            cands = block[b:b + per_chunk]
            q = cands.shape[0]
            step = max(1, VERIFY_CHUNK // (q * n * m))
            cols = cands.transpose(1, 0, 2).reshape(m, q * m)  # [z, (j, y)] = B_j[z, y]
            rows = cands.reshape(q * m, m)                      # [(j, x), z] = B_j[x, z]
            for c in range(0, k, step):
                a = members[c:c + step]
                kc = a.shape[0]
                # left[i, x, j, y] = (A_i B_j)[x, lo + y]
                # right[j, x, i, y] = (B_j A_i)[lo + x, y]
                left = (a[:, :, lo:hi].reshape(kc * n, m) @ cols).reshape(kc, n, q, m)
                right = (rows @ a[:, lo:hi, :].transpose(1, 0, 2).reshape(m, kc * n)
                         ).reshape(q, m, kc, n)
                left[:, lo:hi] -= right[..., lo:hi].transpose(2, 1, 0, 3)
                right[..., lo:hi] = 0.0
                # squared Frobenius norms over the real views (no conjugate copies)
                lv, rv = left.view(float), right.view(float)
                r2 = np.einsum("ixjy,ixjy->ij", lv, lv) + np.einsum("jxiy,jxiy->ij", rv, rv)
                np.maximum(worst[c:c + step], r2.max(axis=1), out=worst[c:c + step])
                del left, right, lv, rv  # so the next chunk's temporaries replace these
    norms = np.linalg.norm(members.reshape(k, -1), axis=1)
    ratio = np.sqrt(worst) / np.maximum(2.0 * norms, 1e-300)
    member = int(np.argmax(ratio))
    return member, float(ratio[member])


def commutant(s: OperatorSet, seed: int = 0) -> OperatorAlgebra:
    """Commutant {B : BA = AB for every A in the set} as an OperatorAlgebra.

    Non-*-closed sets are star-completed first, so the result is always a
    *-algebra, and every member is scaled to unit HS norm.  Computed as the
    nullspace of the stacked commutator maps on the vectorized matrix
    space, restricted to the block pattern of a generic Hermitian
    combination of the generators and solved one coupled component of its
    eigenvalue clusters at a time (:func:`_solve_components`); the
    restriction is exact and the result is verified to commute with every
    generator.  A failed verification adds the worst member to the
    constraints and solves again.

    The pattern element, like the word closure's seed, is the draw that
    :func:`_generic_split` keeps from up to four, any split accepted.  Two
    clusters from different sectors a relative 6e-7 apart mixed their
    eigenvectors by about ``eps / 6e-7``, close enough to ``RANK_TOL`` that
    the identity dropped out of the computed commutant.
    """
    s = star_completion(s)
    n = s.dim
    # Unit HS norm per member (the span, hence the commutant, is unchanged):
    # the nullspace cutoff is absolute, so a member many decades smaller than
    # the largest would otherwise fall below it and drop out of the
    # constraints.  Zero members carry no constraint; an all-zero set stays
    # as it is and yields the full matrix algebra.
    members = _unit_members(s.members)
    _, v, groups = _generic_split(members, seed, [(101,), (101, 1), (101, 2), (101, 3)],
                                  lambda g: True)
    mem_rot = v.conj().T @ members @ v
    scale = 2.0 * float(np.max(np.linalg.norm(mem_rot.reshape(len(members), -1), axis=1)))

    rng = np.random.default_rng([seed, 102])
    active = (v.conj().T @ _generic_hermitian_combo(members, rng) @ v)[None]
    used = np.zeros(len(members), dtype=bool)
    for _ in range(len(members) + 1):
        perm, blocks = _solve_components(active, groups, scale)
        worst, ratio = _verify_commutes(mem_rot[:, perm[:, None], perm], blocks)
        if ratio <= RANK_TOL or bool(used.all()):
            if ratio > RANK_TOL:
                raise PostconditionFailure(
                    f"commutant verification residual {ratio:.3e} above RANK_TOL")
            vp = v[:, perm]
            basis = np.empty((sum(len(c) for _, _, c in blocks), n, n), dtype=complex)
            q = 0
            for lo, hi, cands in blocks:
                out = basis[q:q + len(cands)]
                if cands.ndim == 2:  # V |r><c| V* is the outer product v_r v_c*
                    np.multiply(vp[:, lo + cands[:, 0]].T[:, :, None],
                                vp[:, lo + cands[:, 1]].T.conj()[:, None, :], out=out)
                else:
                    np.matmul(vp[:, lo:hi] @ cands, vp[:, lo:hi].conj().T, out=out)
                q += len(cands)
            if span_residual(basis, np.eye(n, dtype=complex)) > SPAN_TOL:
                raise PostconditionFailure("identity missing from computed commutant")
            return OperatorAlgebra(dim=n, basis=basis, contains_identity=True)
        used[worst] = True
        active = np.concatenate([active, mem_rot[worst][None]])
    raise PostconditionFailure("commutant constraint loop failed to converge")


def _pair_commutant(members: np.ndarray, seed: int, salt, isometry: np.ndarray | None = None):
    """``(T, T')``: two seeded generic Hermitian elements of a stack's span and their commutant.

    Both come from one stream ``default_rng([seed, *salt])``
    (:func:`_generic_hermitian_combo`); ``T`` is their ``(2, n, n)`` stack.
    With an ``n x b`` isometry ``W``, ``T`` is the pair restricted, ``W* T_i
    W``: the pair of the stack ``W* B_k W`` drawn with the same coefficients,
    without restricting every member.  A restricted member whose Frobenius
    norm is at most ``RANK_TOL`` times its unrestricted one is roundoff, a
    draw that misses the blocks, and :class:`DegenerateGenericElement`
    names the salt: ``commutant`` scales every member to unit norm, so it
    would read that roundoff as a constraint.

    Every finite-dimensional C*-algebra is generated by two Hermitian
    elements, and a generic pair drawn from a spanning set of a *-closed
    algebra generates all of it with probability 1, so the pair has the
    algebra's commutant.  It is the one way an algebra's commutant is taken:
    S'' (:func:`generated_algebra`), the decomposition's commutant when none
    is passed, the witness's ``A = A'`` in :func:`check_dirac`, and every
    cross-check that proves a pair's commutant to be a span known in advance
    (:func:`_pair_commutant_equals`, which holds the argument).  A pair that
    misses part of the algebra makes the commutant larger, never smaller,
    and each caller has a guard that then fails.
    """
    rng = np.random.default_rng([seed, *salt])
    pair = np.stack([_generic_hermitian_combo(members, rng) for _ in range(2)])
    if isometry is not None:
        full = np.linalg.norm(pair, axis=(1, 2))
        pair = isometry.conj().T @ pair @ isometry
        if np.any(np.linalg.norm(pair, axis=(1, 2)) <= RANK_TOL * full):
            raise DegenerateGenericElement(
                f"the generic pair drawn at salt {salt} vanishes, to RANK_TOL of its norm, "
                "on the blocks it is restricted to")
    return pair, commutant(OperatorSet(dim=pair.shape[-1], members=pair, names=("h0", "h1"),
                                       self_adjoint_closed=True), seed)


def _pair_commutant_equals(members: np.ndarray, seed: int, salt, expected: np.ndarray,
                           isometry: np.ndarray | None = None):
    """``(T', ratio, holds)``: whether a generic pair's commutant is the span of ``expected``.

    ``T`` and ``T'`` are :func:`_pair_commutant`'s, drawn at the caller's
    salt from the stack that spans an algebra ``A`` (restricted by
    ``isometry`` when one is given), and ``expected`` is a stack ``E`` of
    HS-orthonormal members that the caller knows to lie in ``A'``.  ``ratio``
    is the largest relative commutator of a member of ``E`` with a member of
    ``T`` (:func:`_verify_commutes`), and ``holds`` is ``dim T' == len(E)``
    with ``ratio`` at most ``SPAN_TOL``.

    This is the one proof that a pair's commutant is a span known in
    advance.  ``T`` lies in ``A``, so ``T'`` contains ``A'``, which contains
    ``E``.  ``T'`` is by definition what commutes with both members of
    ``T``, so a small ratio puts ``E`` in ``T'`` as computed, and with
    ``dim T' = len(E) = dim span E`` the two are equal: ``T' = span E = A'``.
    ``n^2`` orthonormal members fill ``M_n``, so then no commutator is formed
    and ``ratio`` is 0.  A pair that generates less than ``A`` only makes
    ``T'`` larger, so the check can fail, never pass.  Its callers: the
    ``algebra`` command's triple commutant (``A = S''``, ``E`` the basis of
    ``O = S'``, salt 105), the d = 1 irreducibility check of
    :func:`~superselect.sectors.central_decomposition` (``E`` the blocks'
    unit identities, salt 204) and the verdict of
    :func:`~superselect.sectors.truncate` (``E`` the unit truncated sector
    projectors, salt 205).  The triple commutant, like the witness's ``A =
    A'`` (salt 106), guards against solver error in the commutants, not
    against a bad draw: in the draw-fault matrix each fails only when its
    own pair is faulted, and neither catches anything on the twilight
    recipe.
    """
    pair, t_cp = _pair_commutant(members, seed, salt, isometry)
    n = pair.shape[-1]
    ratio = 0.0 if len(expected) == n * n else _verify_commutes(pair, [(0, n, expected)])[1]
    return t_cp, ratio, t_cp.algebra_dim == len(expected) and ratio <= SPAN_TOL


def _left_products(gens: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Every generator times every frontier column of a stack of ``n x r`` blocks.

    ``frontier`` has shape ``(K, n*r, f)``, each column a row-major
    ``n x r`` matrix; the result has shape ``(K, n*r, g*f)``, generator-major.
    All ``K`` blocks go through one matrix product.
    """
    k, nr, f = frontier.shape
    g, n, _ = gens.shape
    x = frontier.reshape(k, n, -1).transpose(1, 0, 2).reshape(n, -1)
    prod = (gens.reshape(g * n, n) @ x).reshape(g, n, k, nr // n, f)
    return prod.transpose(2, 1, 3, 0, 4).reshape(k, nr, g * f)


def _block_widths(q: np.ndarray) -> np.ndarray:
    """Number of nonzero columns of each block of a padded column stack."""
    return np.count_nonzero(np.any(q != 0, axis=-2), axis=-1)


def _word_closure_dim(s: OperatorSet, seed: int) -> int:
    """Dimension of the span closure of words in the (star-completed) members.

    Generators are normalized to unit operator norm (the span is scale
    invariant), so a product of a generator with a unit-HS-norm element has
    HS norm at most 1.

    The closure is seeded by the spectral projectors ``E_k`` of one seeded
    generic Hermitian element of the generated algebra ``A``.  They are
    orthogonal idempotents of ``A`` summing to the identity, so ``A`` is the
    direct sum of its left ideals ``A E_k`` (the Peirce decomposition), and
    these lie in the mutually HS-orthogonal subspaces ``M_n E_k``.  Each
    ideal is closed on its own, in a smaller space: with ``V_k`` the
    cluster's ``n x r_k`` orthonormal eigenvectors, ``X -> X V_k*`` is an HS
    isometry from ``C^{n x r_k}`` onto ``M_n E_k`` that commutes with left
    multiplication, so ``dim A E_k = dim A V_k``.  Block ``k`` starts from
    ``V_k / sqrt(r_k)``, the image of ``E_k / sqrt(r_k)``; each round
    multiplies only its frontier -- the directions the previous round added
    -- by every generator on the left, and ``orthonormal_columns_extend``
    keeps the independent part of the products.  The closure stops at the
    first round that adds nothing anywhere, which is itself the closure
    check, and ``dim A`` is the sum of the block widths.  No round works on
    ``n^2``-row matrices.

    One side suffices: every word is a generator times a shorter word, and
    ``E_k`` lies in block ``k``'s seed span, so closing it under left
    multiplication reaches every ``w E_k``, and ``sum_k w E_k = w``.

    Blocks of equal rank ``r`` are extended as one stack of ``n*r``-row
    blocks, and the rank groups run their rounds in step; a block whose
    ideal grows more slowly than others of its rank carries exactly-zero
    surplus columns, which add nothing.  A smaller block is never
    zero-padded to a larger rank: the padded rows lie outside ``M_n E_k``,
    and roundoff from directions kept near the cutoff accumulates there.
    All blocks of a round share one cutoff, ``RANK_TOL``
    times the largest candidate norm of the round, as when the whole span
    was extended at once.  A cutoff per rank group is wrong: a group whose
    candidates are all roundoff (the kernel projector of a Hermitian
    generator, alone in its rank) would measure that roundoff against
    itself and keep it.

    Why the projector seed: a span seeded with ``span{1, generators}`` grows
    along Krylov chains ``g, g^2, g^3, ...``.  Each new direction is a
    residual divided by its singular value, so roundoff grows like the
    product of ``1/sigma`` over about ``n`` rounds.  On one Hermitian
    generator with close eigenvalue pairs the chain left the algebra from
    n = 12 on, and the closure filled the whole ``n^2``-dimensional matrix
    space.  The projectors hold every power of the generic element from the
    start, so those chains never form.

    Which draw: a projector whose eigenvalue cluster lies a relative gap
    ``s`` from the next one carries roundoff of about ``eps / s`` off the
    algebra (Davis-Kahan), and the rounds can amplify it past ``RANK_TOL``;
    one draw with ``s = 1.1e-5`` filled the matrix space.  So the seed comes
    from :func:`_generic_split`, over up to four draws: the first whose
    clusters lie at least ``SEED_SEPARATION`` apart, or else the best
    separated one.  For a single generator every draw has the generator's
    own gaps.

    As a guard, a block wider than its ``n * r_k``-dimensional share of the
    matrix space raises :class:`PostconditionFailure`.
    """
    s = star_completion(s)
    n = s.dim
    norms = np.linalg.norm(s.members, ord=2, axis=(1, 2))
    gens = s.members / np.where(norms > 0, norms, 1.0)[:, None, None]
    _, v, groups = _generic_split(gens, seed, [(104, a) for a in range(4)], lambda g: True)
    ranks = sorted({g.size for g in groups})
    q = [np.stack([v[:, g] for g in groups if g.size == r]).reshape(-1, n * r, 1) / np.sqrt(r)
         for r in ranks]
    frontier = list(q)
    live = range(len(ranks))
    while live:
        cands = {i: _left_products(gens, frontier[i]) for i in live}
        scale = max(float(np.max(np.linalg.norm(c, axis=-2))) for c in cands.values())
        for i, cand in cands.items():
            width, r = q[i].shape[-1], ranks[i]
            q[i] = orthonormal_columns_extend(q[i], cand, scale)
            frontier[i] = q[i][..., width:]
            # a block is never wider than the padded stack
            if q[i].shape[-1] > n * r and np.max(_block_widths(q[i])) > n * r:
                raise PostconditionFailure(
                    f"word closure block exceeds its {n}x{r} share of the "
                    "n^2-dimensional matrix space")
        live = [i for i in live if frontier[i].shape[-1]]
    return int(sum(_block_widths(b).sum() for b in q))


def generated_algebra(s: OperatorSet, seed: int = 0,
                      commutant_algebra: OperatorAlgebra | None = None) -> OperatorAlgebra:
    """The *-algebra generated by a set: its double commutant, verified by word closure.

    A precomputed commutant ``S'`` may be passed in place of the solve
    ``commutant(s)``.  ``S''`` is the commutant of a seeded generic pair of
    ``S'`` (:func:`_pair_commutant`, salt 107).  The word closure of the
    star-completed members (:func:`_word_closure_dim`) is an independent
    route to ``S''``, and the guard: the pair lies in ``S'``, so its
    commutant contains ``S''``, and equal dimensions make the two equal.  A
    dimension disagreement, from a tolerance failure or from a pair that
    generates less than ``S'``, raises :class:`ClosureMismatch`.
    """
    cp = commutant_algebra
    if cp is None:
        cp = commutant(s, seed)
    _, double = _pair_commutant(cp.basis, seed, (107,))
    wdim = _word_closure_dim(s, seed)
    if wdim != double.algebra_dim:
        raise ClosureMismatch(
            f"double commutant dim {double.algebra_dim} != word closure dim {wdim}")
    return double


def center(a: OperatorAlgebra, *, commutant_algebra: OperatorAlgebra) -> OperatorAlgebra:
    """Center of an algebra: the span intersection of the algebra and its commutant.

    Always contains the identity.  The caller passes the commutant it
    holds; :func:`central_decomposition` is the one caller here.  Solved from
    the smaller side: the combinations of the smaller of the two orthonormal
    bases that lie in the span of the larger one.  Only the smaller basis
    is conjugated: the coefficients ``Q_l* v`` are formed as ``(v* Q_l)*``.
    """
    n = a.dim
    small, large = sorted((a, commutant_algebra), key=lambda alg: alg.algebra_dim)
    ql = large.basis.reshape(large.algebra_dim, n * n)
    vs = small.basis.reshape(small.algebra_dim, n * n).T  # columns = smaller-side elements
    resid = vs - ql.T @ (vs.conj().T @ ql.T).conj().T
    coeffs = orthonormal_nullspace(resid, scale=1.0)  # combos lying in the larger span
    basis = np.tensordot(coeffs, small.basis, axes=(0, 0))
    if span_residual(basis, np.eye(n, dtype=complex)) > SPAN_TOL:
        raise PostconditionFailure("identity missing from computed center")
    return OperatorAlgebra(dim=n, basis=basis, contains_identity=True)


def _max_commutator(stack: np.ndarray) -> float:
    """Largest ``||[A, B]|| / (||A|| ||B||)`` over the pairs of a ``(k, n, n)`` stack.

    Frobenius norms throughout, so the value is unchanged by rescaling a
    member or by a unitary change of basis.  The unit members
    (:func:`_unit_members`) are checked against themselves as candidates on
    the one block ``0:n`` by :func:`_verify_commutes`, whose ratio is half
    the relative commutator.  Zero members commute with everything and are
    dropped; a stack with no non-zero member gives 0.
    """
    u = _unit_members(stack)
    return 2.0 * _verify_commutes(u, [(0, u.shape[-1], u)])[1]


def is_abelian(a: OperatorAlgebra) -> tuple[bool, float]:
    """Whether all basis pairs commute; also reports the worst relative residual.

    A scan of every basis pair, ``O(q^2 n^3)`` for a ``q``-dimensional
    algebra, through the commutant's verification kernel (see
    :func:`_max_commutator`); a pair counts as commuting below
    ``ABELIAN_TOL``.
    """
    worst = _max_commutator(a.basis)
    return worst <= ABELIAN_TOL, worst


def _abelian_commutant(dec: SectorDecomposition) -> bool:
    """Whether the commutant of a decomposed algebra is abelian, read from its sectors.

    The commutant acts as ``M_d`` on each sector, so it is abelian exactly
    when every sector has ``d = 1``; the decomposition has already checked
    each ``d`` as an integer.  A sector with ``d != 1`` settles the verdict
    without a scan.  When every ``d`` is 1 the commutant is the center, of
    dimension the number of sectors (at most ``n``), and the pairwise scan
    :func:`is_abelian` cross-checks the verdict cheaply; a disagreement
    raises :class:`PostconditionFailure`.
    """
    if any(sec.d != 1 for sec in dec.sectors):
        return False
    abelian, worst = is_abelian(dec.commutant)
    if not abelian:
        raise PostconditionFailure(
            f"every sector has d = 1 but the commutant's basis pairs do not commute: "
            f"relative commutator {worst:.3e} above {ABELIAN_TOL:.0e}; tolerance pathology")
    return True


@dataclass(frozen=True)
class DiracReport:
    """Outcome of the compatibility check on an observable algebra.

    ``v2_holds`` states whether the commutant of the observables is abelian,
    as decided by the sector multiplicities (every ``d = 1``).  When it
    holds, ``witness`` is a maximal abelian subalgebra of the observables
    (equal to its own commutant): the span of the rank-one projectors onto
    an orthonormal basis adapted to the coherent sectors.
    """

    v2_holds: bool
    witness: OperatorAlgebra | None
    witness_is_maximal_abelian: bool | None = None
    witness_in_observables: bool | None = None


def check_dirac(dec: SectorDecomposition, seed: int = 0) -> DiracReport:
    """Abelian-commutant verdict on a decomposed algebra, plus a maximal abelian witness.

    The verdict comes from the sector multiplicities the decomposition
    already holds (:func:`_abelian_commutant`); the pairwise commutator scan
    runs only to cross-check an abelian verdict.  When it is abelian every
    sector has ``d = 1``, so the observables are the full matrix algebra on
    each block, and the rank-one projectors ``e_k e_k*`` onto the columns of
    the stacked sector isometries are ``n`` HS-orthonormal elements of it
    summing to the identity.  They span the witness.  ``A = A'`` is
    verified independently, by comparing spans with the commutant of a
    seeded generic pair of the witness (:func:`_pair_commutant`, salt 106):
    that commutant ``T'`` contains ``A'``, and ``A`` lies in ``A'`` by
    construction, so ``T' = A`` proves ``A' = A``.  That check guards
    against solver error, not against a bad draw: in the draw-fault matrix
    it fails only when its own pair (salt 106) is faulted, and it catches
    nothing on the twilight recipe.  Containment of the witness in the
    observables is checked too.
    """
    if not _abelian_commutant(dec):
        return DiracReport(v2_holds=False, witness=None)

    cols = np.hstack([sec.isometry for sec in dec.sectors]).T  # row k is e_k
    witness = OperatorAlgebra(dim=dec.dim, basis=cols[:, :, None] * cols[:, None, :].conj(),
                              contains_identity=True)
    _, wcomm = _pair_commutant(witness.basis, seed, (106,))
    return DiracReport(
        v2_holds=True,
        witness=witness,
        witness_is_maximal_abelian=span_equal(witness, wcomm),
        witness_in_observables=(_max_span_residual(dec.algebra.basis, witness.basis)
                                <= MEMBER_TOL),
    )
