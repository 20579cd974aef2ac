"""Dense complex linear-algebra primitives shared by every analysis module.

All matrix collections live in the Hilbert-Schmidt geometry: the inner
product is ``<A, B> = tr(A^* B)``, which turns commutant and center
dimensions into plain numerical-rank computations.  The rank and cluster
cutoffs are the constants ``RANK_TOL`` and ``CLUSTER_TOL``: every verdict,
and the claim that they are safe up to n = 64, is verified at these values
only, so they are part of the algorithm, not settings.  Randomness enters
only through ``np.random.default_rng([seed, salt, ...])``, with the seed a
plain non-negative int and one leading salt per call site, so every
"generic element" draw is reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

__all__ = [
    "as_complex_matrix",
    "hermitian_eig",
    "orthonormal_nullspace",
    "hermitian_part",
    "cluster_eigenvalues",
    "random_hermitian",
    "random_unitary",
]

HERMITIAN_RTOL = 1e-12  # relative Frobenius deviation allowed for "Hermitian" inputs
RANK_TOL = 1e-10  # singular-value cutoff, relative to the largest singular value
CLUSTER_TOL = 1e-8  # eigenvalue clustering width, relative to the spectral diameter
SPAN_TOL = 10 * RANK_TOL  # span residual below which a matrix lies in an orthonormal span
MEMBER_TOL = 100 * RANK_TOL  # relative residual below which a given matrix lies in an algebra


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a square complex matrix: 2-d, square, all entries finite."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _check_hermitian(a: np.ndarray) -> None:
    scale = np.linalg.norm(a)
    dev = np.linalg.norm(a - a.conj().T)
    if dev > HERMITIAN_RTOL * max(scale, 1e-300):
        raise NotHermitian(f"deviation {dev:.3e} exceeds {HERMITIAN_RTOL:.0e} * ||A||")


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.  Raises :class:`NotHermitian` when the input
    deviates from Hermiticity by more than 1e-12 relative Frobenius norm.
    The reconstruction ``v @ diag(w) @ v^*`` matches the input to 1e-10
    relative Frobenius norm.
    """
    m = as_complex_matrix(a)
    _check_hermitian(m)
    w, v = np.linalg.eigh(hermitian_part(m))
    return w, v


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _svd(m: np.ndarray, full_matrices: bool):
    """``(u, s, vh)`` of ``m`` (batch axes allowed); the one SVD behind every rank decision.

    LAPACK's divide-and-conquer SVD fails to converge on rare inputs (one
    residual block of a 20 x 20 closure); the SVD of ``m^*`` takes another
    path to the same factors, with the roles of ``u`` and ``vh`` swapped.
    """
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        u, s, vh = np.linalg.svd(_adjoint(m), full_matrices=full_matrices)
        return _adjoint(vh), s, _adjoint(u)


def orthonormal_nullspace(m, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the (numerical) nullspace of a rectangular matrix.

    A singular direction counts as null when its singular value is at most
    ``RANK_TOL * scale``; ``scale`` defaults to the largest singular value.
    Passing an explicit ``scale`` makes the cutoff absolute, which matters
    when the whole matrix is close to zero (e.g. subspace-membership
    residual maps).  Returns an array of shape ``(cols, k)`` with
    orthonormal columns; the zero matrix yields the full space.

    A tall matrix ``M = Q R`` has the singular values and right singular
    vectors of its square triangular factor ``R``, so the SVD is taken of
    ``R`` and no ``rows``-row left factor is formed.  Householder QR is
    backward stable: ``R`` is the exact factor of ``M + E`` with ``||E||``
    a small multiple of ``eps ||M||``, which by Weyl's inequality moves no
    singular value by more, far below ``RANK_TOL``.
    """
    mm = np.asarray(m, dtype=complex)
    if mm.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {mm.shape}")
    if not np.all(np.isfinite(mm)):
        raise ValueError("matrix contains non-finite entries")
    if mm.shape[0] == 0:
        return np.eye(mm.shape[1], dtype=complex)
    if mm.shape[0] > mm.shape[1]:
        mm = np.linalg.qr(mm, mode="r")
    # with rows >= cols the thin SVD already holds every right singular vector
    _, s, vh = _svd(mm, full_matrices=mm.shape[0] < mm.shape[1])
    v = vh.conj().T
    ref = float(s[0]) if s.size else 0.0
    cutoff = RANK_TOL * (ref if scale is None else scale)
    null_mask = np.ones(mm.shape[1], dtype=bool)
    null_mask[: s.size] = s <= cutoff
    return v[:, null_mask]


def orthonormal_columns_extend(q: np.ndarray, cand: np.ndarray,
                               scale: float | None = None) -> np.ndarray:
    """Extend orthonormal columns ``q`` by the independent part of ``cand``.

    Candidates are projected off ``q`` (twice, for orthogonality at 1e-12)
    and the residual block is reduced by SVD, keeping directions with
    singular value above ``RANK_TOL * scale``; ``scale`` defaults to the
    largest candidate column norm.  Returns the widened column block.

    The cutoff is measured against the candidates before projection, as an
    SVD of the whole stack ``[q, cand]`` would measure it, never against
    the residual itself: once ``q`` nearly spans the candidates the residual
    is pure roundoff, and a cutoff relative to it would keep roundoff
    directions as new dimensions.  An explicit ``scale`` lets a caller
    share one cutoff between several calls.

    A kept left singular vector with singular value ``s`` carries roundoff
    of relative size ``eps * ||r|| / s`` along ``q``, so one kept near the
    cutoff is far from orthogonal to ``q``.  The kept block is therefore
    projected off ``q`` once more and re-orthonormalised; otherwise repeated
    extensions lose orthonormality and then keep spurious directions.

    Batch axes: ``q`` of shape ``(..., m, w)`` and ``cand`` of shape
    ``(..., m, c)`` extend each block on its own, all under one cutoff (the
    default ``scale`` is then the largest candidate norm of the whole
    stack).  Blocks may keep different numbers of new directions; the
    result appends as many columns as the block that keeps most, and each
    other block's surplus columns are exactly zero.  A zero column of ``q``
    or ``cand`` adds nothing, so a stack with such padding can be extended
    again, and a block's width is its number of nonzero columns.
    """
    if cand.shape[-1] == 0:
        return q
    if scale is None:
        scale = float(np.max(np.linalg.norm(cand, axis=-2)))
    drop = RANK_TOL * scale
    r = cand
    for _ in range(2):
        if q.shape[-1]:
            r = r - q @ (_adjoint(q) @ r)
    u, s, _ = _svd(r, full_matrices=False)
    # singular values come in descending order, so each block keeps a prefix
    # of its columns, and the union over the blocks is the longest prefix
    keep = s > drop
    new = u[..., keep.reshape(-1, keep.shape[-1]).any(axis=0)]
    width = new.shape[-1]
    if width == 0:
        return q
    surplus = ~keep[..., None, :width]
    np.copyto(new, 0, where=surplus)
    if q.shape[-1]:
        new, _ = np.linalg.qr(new - q @ (_adjoint(q) @ new))
        np.copyto(new, 0, where=surplus)
    return np.concatenate([q, new], axis=-1)


def cluster_eigenvalues(w: np.ndarray) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters separated by relative gaps.

    The splitting threshold is ``CLUSTER_TOL`` times the spectral diameter.
    A diameter of at most ``CLUSTER_TOL`` times the largest ``|w|`` yields a
    single cluster: the floor scales with the spectrum, so whether a
    near-scalar matrix splits does not depend on its scale.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return []
    diameter = float(w[-1] - w[0])
    if diameter <= CLUSTER_TOL * max(abs(float(w[0])), abs(float(w[-1]))):
        return [np.arange(w.size)]
    gap = CLUSTER_TOL * diameter
    splits = np.nonzero(np.diff(w) > gap)[0] + 1
    return np.split(np.arange(w.size), splits)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Generic Hermitian matrix with O(1) entries (GUE-like, not normalized)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(a)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-like random unitary from the QR decomposition of a Ginibre matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
