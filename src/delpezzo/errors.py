"""Exception types raised by the library.

Every domain error derives from DelPezzoError so the CLI can map them to
exit status 1 uniformly.
"""


class DelPezzoError(Exception):
    """Base class for all domain errors."""


class DegenerateCone(DelPezzoError):
    """Cone rays are linearly dependent."""


class NotResidual(DelPezzoError):
    """Operation requires a residual singularity."""


class MixedIndex(DelPezzoError):
    """Basket mixes local indices where a single one is required."""


class InvalidWeight(DelPezzoError):
    """Weight a is not coprime to the group order r."""


class InvalidFraction(DelPezzoError):
    """Fraction outside the domain of the continued-fraction expansion."""


class NotASurfaceSeries(DelPezzoError):
    """Series lacks the triple pole at t=1 or has constant term != 1."""


class AmbiguousDecomposition(DelPezzoError):
    """The series splitter's linear system has a nontrivial nullspace."""


class NonIntegralDelta(DelPezzoError):
    """Decomposition produced a non-integer delta-vector."""


class NotRealizable(DelPezzoError):
    """Delta-vector does not lie in the delta-lattice."""


class CapacityExceeded(DelPezzoError):
    """An enumeration reached its fixed work budget; results would be partial.
    The message names the budget and the work done before it was reached."""


class Infeasible(DelPezzoError):
    """No positive degree is compatible with the basket."""


class LengthMismatch(DelPezzoError):
    """Vectors have different lengths."""


class ParseError(DelPezzoError):
    """Malformed text input (singularity or rational-function grammar), or
    a number past the size bound of hilbert.size_check."""
