"""Exception hierarchy for the superselect toolkit.

Every error raised on purpose derives from :class:`SuperselectError`, so
callers (and the CLI) can distinguish bad inputs and tolerance pathologies
from genuine bugs.
"""


class SuperselectError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SuperselectError):
    """Operands do not share the required matrix dimension or shape."""


class NotHermitian(SuperselectError):
    """A matrix required to be Hermitian fails the Hermiticity check."""


class ClosureMismatch(SuperselectError):
    """Double-commutant and word-closure constructions disagree in dimension."""


class NonIntegerStructure(SuperselectError):
    """Restricted algebra dimensions are not squares of integers (clustering failure)."""


class ZeroVector(SuperselectError):
    """A state vector required to be non-zero is (numerically) zero."""


class DegenerateGenericElement(SuperselectError):
    """Generic element draws kept producing degenerate spectra after reseeding."""


class DegenerateSpectrum(SuperselectError):
    """An operation requires a simple spectrum but eigenvalues coincide."""


class NotCommuting(SuperselectError):
    """Two observables required to commute have a large commutator."""


class NotJointlyDiagonal(SuperselectError):
    """Rotating into the eigenbasis left off-diagonal residue above tolerance."""


class SizeLimit(SuperselectError):
    """Requested problem size exceeds the supported desk-scale limits."""


class NonIntegerRank(SuperselectError):
    """A character projector rank is not an integer multiple of the irrep dimension."""


class NotACocycle(SuperselectError):
    """A multiplier table fails the strict cocycle identity."""


class DegenerateSample(SuperselectError):
    """All sampled pairs were degenerate for the obstruction; reseed and retry."""


class ShiftNotOnGrid(SuperselectError):
    """A spatial translation is not an integer multiple of the grid spacing."""


class SupportClipped(SuperselectError):
    """Shifting the sampled wavefunction would move support off the grid."""


class UnstableStep(SuperselectError):
    """Integrator energy drift exceeded the hard stability bound."""


class QuadratureTooCoarse(SuperselectError):
    """Sphere quadrature has too few nodes for the requested band limit."""


class ParseError(SuperselectError):
    """Malformed input document; message carries line/offset where known."""


class PostconditionFailure(SuperselectError):
    """An internal consistency check failed; signals a tolerance pathology."""
