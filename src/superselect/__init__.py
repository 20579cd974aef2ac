"""Finite-dimensional superselection structure toolkit.

Decides whether a set of observables admits superselection sectors,
decomposes the state space into coherent blocks, checks for a maximal
abelian subalgebra (equivalently an abelian commutant), writes an
observable commuting with a simple-spectrum one as a polynomial in it, and
carries three worked case studies: permutation-invariant observables on
tensor powers, the mass multiplier of Galilei boosts, and asymptotic
charge-flux multipoles.

States are plain vectors and density matrices, not toolkit objects: a
superposition of vectors from different sectors gives every observable the
expectation of the mixture weighted by ``||P_s phi||^2``, with ``P_s`` the
sectors' projectors (``Sector.projector``).
"""

from .numkernel import (
    as_complex_matrix,
    hermitian_eig,
    orthonormal_nullspace,
)
from .opalgebra import (
    DiracReport,
    OperatorAlgebra,
    OperatorSet,
    algebra_from_span,
    center,
    check_dirac,
    commutant,
    generated_algebra,
    is_abelian,
    operator_set,
)
from .sectors import SectorDecomposition, central_decomposition, truncate
from .diracsets import (
    Polynomial,
    cyclic_vector_for,
    has_simple_spectrum,
    interpolate_commuting,
    is_cyclic,
)

__version__ = "0.1.0"

__all__ = [
    "as_complex_matrix", "hermitian_eig",
    "orthonormal_nullspace",
    "DiracReport", "OperatorAlgebra", "OperatorSet", "algebra_from_span",
    "center", "check_dirac", "commutant", "generated_algebra", "is_abelian",
    "operator_set",
    "SectorDecomposition", "central_decomposition", "truncate",
    "Polynomial", "cyclic_vector_for", "has_simple_spectrum",
    "interpolate_commuting", "is_cyclic",
]
