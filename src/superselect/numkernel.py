"""Dense complex linear-algebra primitives shared by every analysis module.

All matrix collections live in the Hilbert-Schmidt geometry: the inner
product is ``<A, B> = tr(A^* B)``, which turns commutant and center
dimensions into plain numerical-rank computations.  Randomness enters only
through generators derived from the seed stored in :class:`ToleranceConfig`,
so every "generic element" draw is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian

__all__ = [
    "ToleranceConfig",
    "as_complex_matrix",
    "hermitian_eig",
    "orthonormal_nullspace",
    "hs_inner",
    "hermitian_part",
    "cluster_eigenvalues",
    "random_hermitian",
    "random_unitary",
]

HERMITIAN_RTOL = 1e-12  # relative Frobenius deviation allowed for "Hermitian" inputs


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy: rank cutoff, eigenvalue clustering width, RNG seed.

    ``rank_tol`` is relative to the largest singular value, ``cluster_tol``
    to the spectral diameter.  The defaults leave a comfortable margin for
    double precision at ambient dimensions up to 64.
    """

    rank_tol: float = 1e-10
    cluster_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rank_tol < 1.0):
            raise ValueError(f"rank_tol must lie in (0, 1), got {self.rank_tol}")
        if not (0.0 < self.cluster_tol < 1.0):
            raise ValueError(f"cluster_tol must lie in (0, 1), got {self.cluster_tol}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def rng(self, *salt: int) -> np.random.Generator:
        """Derived generator; distinct salts give independent reproducible streams."""
        return np.random.default_rng([int(self.seed), *map(int, salt)])


DEFAULT_TOL = ToleranceConfig()


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a square complex matrix: 2-d, square, all entries finite."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^* b)."""
    return complex(np.vdot(a, b))


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


def orthonormal_nullspace(m, tol: ToleranceConfig = DEFAULT_TOL,
                          scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the (numerical) nullspace of a rectangular matrix.

    A singular direction counts as null when its singular value is at most
    ``rank_tol * scale``; ``scale`` defaults to the largest singular value.
    Passing an explicit ``scale`` makes the cutoff absolute, which matters
    when the whole matrix is close to zero (e.g. subspace-membership
    residual maps).  Returns an array of shape ``(cols, k)`` with
    orthonormal columns; the zero matrix yields the full space.
    """
    mm = np.asarray(m, dtype=complex)
    if mm.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {mm.shape}")
    if not np.all(np.isfinite(mm)):
        raise ValueError("matrix contains non-finite entries")
    if mm.shape[0] == 0:
        return np.eye(mm.shape[1], dtype=complex)
    # with rows >= cols the thin SVD already holds every right singular vector
    _, s, vh = np.linalg.svd(mm, full_matrices=mm.shape[0] < mm.shape[1])
    ref = float(s[0]) if s.size else 0.0
    cutoff = tol.rank_tol * (ref if scale is None else scale)
    null_mask = np.ones(mm.shape[1], dtype=bool)
    null_mask[: s.size] = s <= cutoff
    return vh.conj().T[:, null_mask]


def orthonormal_columns_extend(q: np.ndarray, cand: np.ndarray,
                               drop: float) -> np.ndarray:
    """Extend orthonormal columns ``q`` by the independent part of ``cand``.

    Candidates are projected off ``q`` (twice, for orthogonality at 1e-12)
    and the residual block is reduced by SVD, keeping directions with
    singular value above ``drop``.  Returns the widened column block.

    A kept left singular vector with singular value ``s`` carries roundoff
    of relative size ``eps * ||r|| / s`` along ``q``, so one kept near the
    cutoff is far from orthogonal to ``q``.  The kept block is therefore
    projected off ``q`` once more and re-orthonormalised; otherwise repeated
    extensions lose orthonormality and then keep spurious directions.
    """
    if cand.shape[1] == 0:
        return q
    r = cand
    for _ in range(2):
        if q.shape[1]:
            r = r - q @ (q.conj().T @ r)
    u, s, _ = np.linalg.svd(r, full_matrices=False)
    new = u[:, s > drop]
    if new.shape[1] == 0:
        return q
    if not q.shape[1]:
        return new
    new, _ = np.linalg.qr(new - q @ (q.conj().T @ new))
    return np.hstack([q, new])


def cluster_eigenvalues(w: np.ndarray, cluster_tol: float) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters separated by relative gaps.

    The splitting threshold is ``cluster_tol`` times the spectral diameter;
    a (numerically) zero diameter yields a single cluster.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return []
    diameter = float(w[-1] - w[0])
    # a diameter at roundoff scale means a single degenerate cluster
    noise_floor = 1e-12 * max(abs(float(w[0])), abs(float(w[-1])), 1.0)
    if diameter <= noise_floor:
        return [np.arange(w.size)]
    gap = cluster_tol * diameter
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
