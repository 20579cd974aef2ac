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
    DEFAULT_TOL,
    ToleranceConfig,
    as_complex_matrix,
    cluster_eigenvalues,
    hermitian_part,
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

    Invariants (testable via :meth:`validate`): the basis is orthonormal to
    1e-10, closed under adjoints and products within tolerance, and the
    identity lies in its span.
    """

    dim: int
    basis: np.ndarray  # (q, n, n), HS-orthonormal
    contains_identity: bool

    @property
    def algebra_dim(self) -> int:
        return self.basis.shape[0]

    def as_set(self) -> OperatorSet:
        """The basis as a *-closed generator set, e.g. to take the commutant."""
        return OperatorSet(dim=self.dim, members=self.basis,
                           names=tuple(f"g{i}" for i in range(self.algebra_dim)),
                           self_adjoint_closed=True)

    def validate(self, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        q, n = self.algebra_dim, self.dim
        vecs = self.basis.reshape(q, n * n)
        gram = vecs.conj() @ vecs.T
        if np.max(np.abs(gram - np.eye(q))) > 1e-10:
            raise PostconditionFailure("algebra basis is not HS-orthonormal")
        adj = self.basis.conj().transpose(0, 2, 1)
        if _max_span_residual(self.basis, adj) > 10 * tol.rank_tol:
            raise PostconditionFailure("algebra basis is not closed under adjoints")
        for _, left, right in _pair_products(self.basis):
            if max(_max_span_residual(self.basis, left),
                   _max_span_residual(self.basis, right)) > 1e-8:
                raise PostconditionFailure("algebra basis is not closed under products")
        if span_residual(self.basis, np.eye(n, dtype=complex)) > 10 * tol.rank_tol:
            raise PostconditionFailure("identity not in algebra span")


def operator_set(mats, names=None, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSet:
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
    # Decide *-closure on the members scaled to unit HS norm, zero members
    # dropped, as commutant does: the orthonormalisation cutoff is relative
    # to the largest member, so a member many decades smaller would
    # otherwise drop out and its missing adjoint go unseen.
    norms = np.linalg.norm(members.reshape(len(mats), -1), axis=1)
    unit = members[norms > 0] / norms[norms > 0, None, None]
    closed = not len(unit) or _max_span_residual(
        _orthonormalize_stack(unit, tol), unit.conj().transpose(0, 2, 1)) <= tol.rank_tol
    return OperatorSet(dim=n, members=members, names=names, self_adjoint_closed=closed)


def star_completion(s: OperatorSet) -> OperatorSet:
    """Append adjoints unless the span is already *-closed."""
    if s.self_adjoint_closed:
        return s
    adj = s.members.conj().transpose(0, 2, 1)
    members = np.concatenate([s.members, adj])
    names = s.names + tuple(f"{name}*" for name in s.names)
    return OperatorSet(dim=s.dim, members=members, names=names, self_adjoint_closed=True)


def algebra_from_span(mats, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorAlgebra:
    """Orthonormalize a spanning set into an OperatorAlgebra (no closure applied)."""
    mats = [as_complex_matrix(m) for m in mats]
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats[1:]):
        raise DimensionMismatch("all matrices must share one dimension")
    basis = _orthonormalize_stack(np.stack(mats), tol)
    ident = span_residual(basis, np.eye(n, dtype=complex)) <= tol.rank_tol * 10
    return OperatorAlgebra(dim=n, basis=basis, contains_identity=bool(ident))


# ---------------------------------------------------------------------------
# span utilities

def _orthonormalize_stack(mats: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    k, n, _ = mats.shape
    norms = np.linalg.norm(mats.reshape(k, -1), axis=1)
    drop = tol.rank_tol * max(float(norms.max()), 1e-300)
    q = orthonormal_columns_extend(np.zeros((n * n, 0), dtype=complex),
                                   mats.reshape(k, n * n).T, drop)
    return q.T.reshape(-1, n, n)


def span_residual(basis: np.ndarray, mat: np.ndarray) -> float:
    """Frobenius distance from ``mat`` to the span of an orthonormal basis stack."""
    q = basis.reshape(basis.shape[0], -1)
    v = mat.ravel()
    return float(np.linalg.norm(v - q.T @ (q.conj() @ v)))


def _max_span_residual(basis: np.ndarray, mats: np.ndarray) -> float:
    """Largest projection residual of ``mats`` onto the span of an orthonormal basis stack."""
    q = basis.reshape(basis.shape[0], -1)
    v = mats.reshape(mats.shape[0], -1)
    resid = v - (v @ q.conj().T) @ q
    return float(np.max(np.linalg.norm(resid, axis=1))) if len(resid) else 0.0


def span_equal(a: OperatorAlgebra, b: OperatorAlgebra,
               tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Span equality of two algebras: equal dimension and mutual containment."""
    if a.algebra_dim != b.algebra_dim or a.dim != b.dim:
        return False
    thresh = 10 * tol.rank_tol
    return (_max_span_residual(a.basis, b.basis) <= thresh
            and _max_span_residual(b.basis, a.basis) <= thresh)


# ---------------------------------------------------------------------------
# commutant

def _generic_hermitian_combo(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded generic Hermitian element of the real span of members + adjoints."""
    k = members.shape[0]
    herm = 0.5 * (members + members.conj().transpose(0, 2, 1))
    anti = (0.5 / 1j) * (members - members.conj().transpose(0, 2, 1))
    c1, c2 = rng.standard_normal(k), rng.standard_normal(k)
    return np.tensordot(c1, herm, axes=1) + np.tensordot(c2, anti, axes=1)


def _generic_split(members: np.ndarray, tol: ToleranceConfig, salts, accept):
    """``(w, v, groups)`` of the first seeded generic element whose clusters pass ``accept``.

    Per salt, the element drawn from ``tol.rng(*salt)`` is diagonalized and
    its ascending eigenvalues clustered at ``cluster_tol``.  When no draw
    passes, :class:`DegenerateGenericElement` names the last salt.
    """
    for salt in salts:
        x = _generic_hermitian_combo(members, tol.rng(*salt))
        w, v = np.linalg.eigh(hermitian_part(x))
        groups = cluster_eigenvalues(w, tol.cluster_tol)
        if accept(groups):
            return w, v, groups
    raise DegenerateGenericElement(
        f"no generic element split as required; the last draw (salt {salt}) gave "
        f"clusters of sizes {[int(g.size) for g in groups]}")


def _pattern_constraints(a_rot: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of the map (pattern coords) -> vec([A, B]) for one rotated generator.

    The pattern basis element for pair ``(a, b)`` is the matrix unit
    ``|a><b|``; its commutator with A has column ``b`` equal to ``A[:, a]``
    and row ``a`` equal to ``-A[b, :]``.
    """
    n = a_rot.shape[0]
    p = rows.size
    out = np.zeros((p, n, n), dtype=complex)
    out[np.arange(p)[:, None], np.arange(n)[None, :], cols[:, None]] += a_rot[:, rows].T
    out[np.arange(p)[:, None], rows[:, None], np.arange(n)[None, :]] -= a_rot[cols, :]
    return out.reshape(p, n * n).T  # (n^2, p)


def _verify_commutes(members: np.ndarray, cands: np.ndarray, tol: ToleranceConfig):
    """Max relative commutator residual of candidates against each member."""
    norms = np.linalg.norm(members.reshape(members.shape[0], -1), axis=1)
    worst_member, worst_ratio = -1, 0.0
    for m, (a, na) in enumerate(zip(members, norms)):
        comm = a @ cands - cands @ a
        r = float(np.max(np.linalg.norm(comm.reshape(comm.shape[0], -1), axis=1)))
        ratio = r / max(2.0 * na, 1e-300)
        if ratio > worst_ratio:
            worst_member, worst_ratio = m, ratio
    return worst_member, worst_ratio


def commutant(s: OperatorSet, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorAlgebra:
    """Commutant {B : BA = AB for every A in the set} as an OperatorAlgebra.

    Non-*-closed sets are star-completed first, so the result is always a
    *-algebra, and every member is scaled to unit HS norm.  Computed as the
    nullspace of the stacked commutator maps on the vectorized matrix
    space, restricted to the block pattern of a generic Hermitian
    combination of the generators; the restriction is exact and the result
    is verified to commute with every generator.
    """
    s = star_completion(s)
    n = s.dim
    # Unit HS norm per member (the span, hence the commutant, is unchanged):
    # the nullspace cutoff is absolute, so a member many decades smaller than
    # the largest would otherwise fall below it and drop out of the
    # constraints.  Zero members carry no constraint; an all-zero set stays
    # as it is and yields the full matrix algebra.
    norms = np.linalg.norm(s.members.reshape(len(s), -1), axis=1)
    nonzero = norms > 0
    members = (s.members[nonzero] / norms[nonzero, None, None]
               if nonzero.any() else s.members)
    _, v, groups = _generic_split(members, tol, [(101,)], lambda g: True)
    labels = np.empty(n, dtype=int)
    for lab, idx in enumerate(groups):
        labels[idx] = lab
    rows, cols = np.nonzero(labels[:, None] == labels[None, :])
    mem_rot = v.conj().T @ members @ v
    scale = 2.0 * float(np.max(np.linalg.norm(mem_rot.reshape(len(members), -1), axis=1)))

    x2 = v.conj().T @ _generic_hermitian_combo(members, tol.rng(102)) @ v
    active = [x2]
    used = np.zeros(len(members), dtype=bool)
    for _ in range(len(members) + 1):
        cmat = np.vstack([_pattern_constraints(a, rows, cols) for a in active])
        coeffs = orthonormal_nullspace(cmat, tol, scale=scale)
        cands = np.zeros((coeffs.shape[1], n, n), dtype=complex)
        cands[:, rows, cols] = coeffs.T
        worst, ratio = _verify_commutes(mem_rot, cands, tol)
        if ratio <= tol.rank_tol or bool(used.all()):
            if ratio > tol.rank_tol:
                raise PostconditionFailure(
                    f"commutant verification residual {ratio:.3e} above rank_tol")
            basis = v @ cands @ v.conj().T
            if span_residual(basis, np.eye(n, dtype=complex)) > 10 * tol.rank_tol:
                raise PostconditionFailure("identity missing from computed commutant")
            return OperatorAlgebra(dim=n, basis=basis, contains_identity=True)
        used[worst] = True
        active.append(mem_rot[worst])
    raise PostconditionFailure("commutant constraint loop failed to converge")


def _word_closure_dim(s: OperatorSet, tol: ToleranceConfig) -> int:
    """Dimension of the span closure of words in the (star-completed) members.

    Generators are normalized to unit operator norm (the span is scale
    invariant), so a product of a generator with a unit-HS-norm basis
    element has HS norm at most 1.  The span starts as the orthonormalised
    ``span{1/sqrt(n), generators}``.  Each round multiplies only the
    frontier -- the directions added by the previous round -- by every
    generator on the left and on the right: older directions' products are
    already in the span.  The products are projected off the span twice and
    the residual is reduced by one SVD, keeping a direction when its
    singular value exceeds ``rank_tol`` times the largest candidate norm.
    The closure stops at the first round that adds nothing, which is itself
    the closure check.

    A naive incremental version bred spurious dimensions because its cutoff
    was relative to the residual's own top singular value: once the span is
    nearly closed the residual is pure roundoff, a relative cutoff keeps
    roundoff directions as new dimensions, and their products seed more.
    Here the cutoff is measured against the candidates before projection
    (norm ~1), as a full-stack SVD measures against the whole stack, so a
    residual at roundoff level stays far below it.  A direction kept just
    above the cutoff is known only to roundoff over its singular value, so
    ``orthonormal_columns_extend`` re-orthogonalises the kept block against
    the span; without that the span loses orthonormality on inputs with
    near-cutoff directions (a planted generator perturbed by 1e-5) and
    grows without bound.  As a guard, a span wider than ``n^2`` raises
    :class:`PostconditionFailure`.
    """
    s = star_completion(s)
    n = s.dim
    norms = np.linalg.norm(s.members, ord=2, axis=(1, 2))
    gens = s.members / np.where(norms > 0, norms, 1.0)[:, None, None]
    seed = np.concatenate([np.eye(n, dtype=complex)[None] / np.sqrt(n), gens])
    frontier = _orthonormalize_stack(seed, tol)
    q = frontier.reshape(-1, n * n).T
    while len(frontier):
        left = gens[:, None] @ frontier[None]
        right = frontier[None] @ gens[:, None]
        cand = np.concatenate([left, right]).reshape(-1, n * n).T
        drop = tol.rank_tol * max(float(np.max(np.linalg.norm(cand, axis=0))), 1e-300)
        width = q.shape[1]
        q = orthonormal_columns_extend(q, cand, drop)
        if q.shape[1] > n * n:
            raise PostconditionFailure("word closure exceeds the n^2-dimensional matrix space")
        frontier = q[:, width:].T.reshape(-1, n, n)
    return q.shape[1]


def _verify_word_closure(s: OperatorSet, double: OperatorAlgebra,
                         tol: ToleranceConfig) -> None:
    """Cross-check a double commutant ``s''`` against the word closure of ``s``.

    The word closure (repeatedly adjoining products of the star-completed
    members to ``span{1, members}``) is an independent route to the
    generated algebra; a dimension disagreement signals a tolerance failure
    and raises :class:`ClosureMismatch`.
    """
    wdim = _word_closure_dim(s, tol)
    if wdim != double.algebra_dim:
        raise ClosureMismatch(
            f"double commutant dim {double.algebra_dim} != word closure dim {wdim}")


def generated_algebra(s: OperatorSet, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorAlgebra:
    """The *-algebra generated by a set: its double commutant, verified by word closure."""
    double = commutant(commutant(s, tol).as_set(), tol)
    _verify_word_closure(s, double, tol)
    return double


def center(a: OperatorAlgebra, tol: ToleranceConfig = DEFAULT_TOL,
           commutant_algebra: OperatorAlgebra | None = None) -> OperatorAlgebra:
    """Center of an algebra: the span intersection of the algebra and its commutant.

    Always contains the identity.  A precomputed commutant may be passed to
    avoid recomputation.
    """
    cp = commutant_algebra
    if cp is None:
        cp = commutant(a.as_set(), tol)
    n = a.dim
    qa = a.basis.reshape(a.algebra_dim, n * n)
    vc = cp.basis.reshape(cp.algebra_dim, n * n).T  # columns = commutant elements
    resid = vc - qa.T @ (qa.conj() @ vc)
    coeffs = orthonormal_nullspace(resid, tol, scale=1.0)  # combos of cp lying in span(a)
    basis = np.tensordot(coeffs, cp.basis, axes=(0, 0))
    if span_residual(basis, np.eye(n, dtype=complex)) > 10 * tol.rank_tol:
        raise PostconditionFailure("identity missing from computed center")
    return OperatorAlgebra(dim=n, basis=basis, contains_identity=True)


def _pair_products(basis: np.ndarray):
    """Yield ``(i, B_i B_j, B_j B_i)`` over ``j >= i`` for a ``(q, n, n)`` stack.

    One row ``i`` at a time (memory stays at two ``(q - i, n, n)`` stacks),
    each side as a single GEMM: ``B_i`` against the side-by-side stack
    ``[B_i | ... | B_{q-1}]``, and the stacked ``[B_i; ...; B_{q-1}]``
    against ``B_i``.  Together the rows cover every ordered pair.
    """
    q, n, _ = basis.shape
    basis = np.ascontiguousarray(basis)
    side_by_side = basis.transpose(1, 0, 2).reshape(n, q * n)
    for i in range(q):
        left = (basis[i] @ side_by_side[:, i * n:]).reshape(n, q - i, n).transpose(1, 0, 2)
        right = (basis[i:].reshape(-1, n) @ basis[i]).reshape(q - i, n, n)
        yield i, left, right


def is_abelian(a: OperatorAlgebra, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether all basis pairs commute; also reports the worst relative residual.

    Pairs with ``j < i`` are skipped: ``[B_i, B_j] = -[B_j, B_i]``.
    """
    basis = a.basis
    q = basis.shape[0]
    norms = np.linalg.norm(basis.reshape(q, -1), axis=1)
    worst = 0.0
    for i, left, right in _pair_products(basis):
        r = np.linalg.norm(left - right, axis=(1, 2)) / (norms[i] * norms[i:])
        worst = max(worst, float(np.max(r)))
    return worst <= ABELIAN_TOL, worst


@dataclass(frozen=True)
class DiracReport:
    """Outcome of the compatibility check on an observable algebra.

    ``v2_holds`` states whether the commutant of the observables is abelian.
    When it holds, ``witness`` is a maximal abelian subalgebra of the
    observables (equal to its own commutant): the span of the rank-one
    projectors onto an orthonormal basis adapted to the coherent sectors.
    """

    v2_holds: bool
    witness: OperatorAlgebra | None
    commutant_dim: int
    max_commutator: float
    witness_is_maximal_abelian: bool | None = None
    witness_in_observables: bool | None = None


def check_dirac(dec: SectorDecomposition, tol: ToleranceConfig = DEFAULT_TOL) -> DiracReport:
    """Abelian-commutant verdict on a decomposed algebra, plus a maximal abelian witness.

    The verdict reads the commutant the decomposition already holds.  When
    it is abelian every sector has ``d = 1``, so the observables are the
    full matrix algebra on each block, and the rank-one projectors
    ``e_k e_k*`` onto the columns of the stacked sector isometries are ``n``
    HS-orthonormal elements of it summing to the identity.  They span the
    witness.  ``A = A'`` is verified independently, by taking the
    witness's commutant and comparing spans, and so is containment of the
    witness in the observables.
    """
    cp = dec.commutant
    abelian, worst = is_abelian(cp, tol)
    if not abelian:
        return DiracReport(v2_holds=False, witness=None,
                           commutant_dim=cp.algebra_dim, max_commutator=worst)

    cols = np.hstack([sec.isometry for sec in dec.sectors]).T  # row k is e_k
    witness = OperatorAlgebra(dim=dec.dim, basis=cols[:, :, None] * cols[:, None, :].conj(),
                              contains_identity=True)
    wcomm = commutant(witness.as_set(), tol)
    return DiracReport(
        v2_holds=True,
        witness=witness,
        commutant_dim=cp.algebra_dim,
        max_commutator=worst,
        witness_is_maximal_abelian=span_equal(witness, wcomm, tol),
        witness_in_observables=(_max_span_residual(dec.algebra.basis, witness.basis)
                                <= 100 * tol.rank_tol),
    )
