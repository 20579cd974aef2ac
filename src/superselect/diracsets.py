"""Complete commuting sets in finite dimensions.

A Hermitian matrix with pairwise distinct eigenvalues generates a maximal
abelian algebra; anything commuting with it is a polynomial in it, found by
interpolation through the paired eigenvalues.  The Newton divided-difference
form replaces the raw Vandermonde solve (unstable past n of about 8).  The
monomial coefficients it expands to still lose accuracy as n grows, so
every result is checked: p(A) must match B within 1e-8 relative, else
:class:`PostconditionFailure` is raised.  With sorted nodes uniform in
[-3, 3] and standard normal target values, all 20 draws from
``default_rng(1)`` meet the check up to n = 10; one misses at n = 11, two
at n = 12 and 12 at n = 14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotCommuting,
    NotJointlyDiagonal,
    PostconditionFailure,
    ZeroVector,
)
from .numkernel import (
    cluster_eigenvalues,
    hermitian_eig,
    orthonormal_nullspace,
)
from .opalgebra import OperatorAlgebra, _max_commutator

__all__ = [
    "Polynomial",
    "has_simple_spectrum",
    "interpolate_commuting",
    "cyclic_vector_for",
    "is_cyclic",
]

COMMUTE_RTOL = 1e-10
JOINT_DIAG_RTOL = 1e-8
INTERPOLATION_RTOL = 1e-8  # max ||p(A) - B|| / ||B||


@dataclass(frozen=True)
class Polynomial:
    """Complex polynomial with coefficients in ascending degree order."""

    coefficients: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coefficients)

    def of_matrix(self, a: np.ndarray) -> np.ndarray:
        """Evaluate on a square matrix by Horner's rule."""
        n = a.shape[0]
        out = np.zeros_like(np.asarray(a, dtype=complex))
        for c in self.coefficients[::-1]:
            out = out @ a + c * np.eye(n)
        return out


def has_simple_spectrum(a) -> tuple[bool, float]:
    """Whether a Hermitian matrix has pairwise distinct eigenvalues.

    Gaps are compared against ``CLUSTER_TOL`` times the spectral diameter,
    and a spectrum whose diameter is at most ``CLUSTER_TOL`` times its
    largest ``|eigenvalue|`` counts as degenerate (one cluster, as in
    :func:`cluster_eigenvalues`).  Returns the verdict and the minimum gap.
    """
    return _simple_spectrum(hermitian_eig(a)[0])


def _simple_spectrum(w: np.ndarray) -> tuple[bool, float]:
    """:func:`has_simple_spectrum` on ascending eigenvalues already computed."""
    if w.size < 2:
        return True, float("inf")
    min_gap = float(np.min(np.diff(w)))
    # shares the clustering convention, incl. its relative diameter floor
    n_clusters = len(cluster_eigenvalues(w))
    return n_clusters == w.size, min_gap


def _newton_coefficients(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the interpolant through (nodes, values)."""
    n = len(nodes)
    dd = np.array(values, dtype=complex)
    table = [dd[0]]
    for order in range(1, n):
        dd = (dd[1:] - dd[:-1]) / (nodes[order:] - nodes[:-order])
        table.append(dd[0])
    # expand c0 + c1 (x-x0) + c2 (x-x0)(x-x1) + ... into monomials
    poly = np.zeros(1, dtype=complex)
    factor = np.ones(1, dtype=complex)
    for k, c in enumerate(table):
        poly = np.polynomial.polynomial.polyadd(poly, c * factor)
        factor = np.polynomial.polynomial.polymul(factor, [-nodes[k], 1.0])
    return poly


def interpolate_commuting(a, b) -> Polynomial:
    """Polynomial p of degree < n with p(A) = B, for commuting Hermitian A, B.

    A and B must commute: ``||[A, B]|| / (||A|| ||B||)`` at most
    ``COMMUTE_RTOL``, else :class:`NotCommuting`.  Requires a simple
    spectrum of A; B is rotated into A's eigenbasis and
    must be diagonal there within 1e-8 relative residual (larger residue
    raises :class:`NotJointlyDiagonal` instead of silently projecting).
    Leading terms below 1e-10 of the largest, each sized as ``|c_k| rho^k``
    with ``rho`` the spectral radius of A, are dropped, so the degree does
    not depend on the scale of A.  The result must satisfy ``||p(A) - B|| <=
    1e-8 ||B||`` (``INTERPOLATION_RTOL``), else :class:`PostconditionFailure`
    names n and the miss.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    wa, va = hermitian_eig(a)
    wb_norm = float(np.linalg.norm(b))
    comm = _max_commutator(np.stack([a, b]))
    if comm > COMMUTE_RTOL:
        raise NotCommuting(f"relative commutator {comm:.3e} above {COMMUTE_RTOL:.0e}")
    simple, min_gap = _simple_spectrum(wa)
    if not simple:
        raise DegenerateSpectrum(
            f"spectrum of A is not simple (min gap {min_gap:.3e}); "
            "interpolation system is singular")

    b_rot = va.conj().T @ b @ va
    off = b_rot - np.diag(np.diagonal(b_rot))
    if np.linalg.norm(off) > JOINT_DIAG_RTOL * max(wb_norm, 1e-300):
        raise NotJointlyDiagonal(
            f"off-diagonal residual {np.linalg.norm(off):.3e} after rotating into "
            "A's eigenbasis; inputs are too close to degeneracy")
    beta = np.real(np.diagonal(b_rot))
    coeffs = _newton_coefficients(wa, beta.astype(complex))
    # c_k scales like rho^-k: size each term on A's spectrum, not by |c_k|
    rho = float(np.max(np.abs(wa)))
    terms = np.abs(coeffs) * rho ** np.arange(len(coeffs))
    scale = max(float(np.max(terms)), 1e-300)
    keep = len(coeffs)
    while keep > 1 and terms[keep - 1] <= 1e-10 * scale:
        keep -= 1
    p = Polynomial(coefficients=coeffs[:keep])
    miss = float(np.linalg.norm(p.of_matrix(a) - b)) / max(wb_norm, 1e-300)
    if not miss <= INTERPOLATION_RTOL:
        raise PostconditionFailure(
            f"p(A) misses B by {miss:.1e} relative at n = {len(wa)}, above "
            f"{INTERPOLATION_RTOL:.0e}: the monomial coefficients are too ill-conditioned")
    return p


def cyclic_vector_for(a) -> np.ndarray:
    """Normalized sum of the eigenvectors of a simple-spectrum Hermitian matrix.

    This vector generates the whole space under the algebra of polynomials
    in ``a``; with a degenerate spectrum no cyclic vector exists and
    :class:`DegenerateSpectrum` is raised.
    """
    w, v = hermitian_eig(a)
    simple, min_gap = _simple_spectrum(w)
    if not simple:
        raise DegenerateSpectrum(
            f"spectrum is degenerate (min gap {min_gap:.3e}); no cyclic vector exists")
    g = v.sum(axis=1)
    return g / np.linalg.norm(g)


def is_cyclic(g, a: OperatorAlgebra) -> bool:
    """Whether the algebra orbit {B g} spans the full space (numerical rank n).

    The orbit has full rank exactly when no vector of C^n is orthogonal to
    every ``B_k g``, i.e. when the adjoint of the orbit matrix has an empty
    nullspace at ``RANK_TOL``.
    """
    v = np.asarray(g, dtype=complex).ravel()
    if v.size != a.dim:
        raise DimensionMismatch(f"vector has length {v.size}, expected the algebra "
                                f"dimension {a.dim}")
    if np.linalg.norm(v) == 0.0:
        raise ZeroVector("cyclicity needs a non-zero vector")
    orbit = np.einsum("kij,j->ik", a.basis, v)  # columns B_k g
    return orthonormal_nullspace(orbit.conj().T).shape[1] == 0
