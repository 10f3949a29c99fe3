"""Exception taxonomy for rieszmart.

Every precondition failure raises a dedicated subclass of RieszmartError so
callers (and the CLI) can map hypothesis violations to exit code 2 without
string-matching messages.
"""


class RieszmartError(Exception):
    """Base class for all rieszmart precondition and hypothesis errors."""


class SpaceMismatch(RieszmartError):
    """Operands live on different sample spaces (size or weights differ)."""


class NegativeBase(RieszmartError):
    """Fractional power requested for an element with a negative coordinate."""


class NonpositiveExponent(RieszmartError):
    """Power requires a strictly positive exponent."""


class BadExponent(RieszmartError):
    """Exponent outside the range the operation is defined for."""


class ExponentMismatch(RieszmartError):
    """Conjugate exponent pair does not satisfy 1/p + 1/q = 1."""


class NotRefining(RieszmartError):
    """Consecutive partitions of a filtration fail the refinement check."""


class Incompatible(RieszmartError):
    """Base averaging operator is not coarser than every stage of the filtration."""


class NegativeGenerator(RieszmartError):
    """Band projections must be generated by a nonnegative element."""


class NegativeArgument(RieszmartError):
    """Operation defined on the positive cone received a negative coordinate."""


class NegativeProcess(RieszmartError):
    """Process required to be nonnegative has a negative coordinate."""


class NotAdapted(RieszmartError):
    """Process value at step i is not fixed by the stage-i averaging operator."""


class NotSubmartingale(RieszmartError):
    """Process fails the (sub)martingale classification required here."""


class NotDifferenceSequence(RieszmartError):
    """Sequence is not a martingale difference sequence for its filtration."""


class BadWeights(RieszmartError):
    """Weight sequence fails positivity/monotonicity/divergence requirements."""


class GNotInRange(RieszmartError):
    """Threshold element is not block-constant for the base operator."""


class NotSummable(RieszmartError):
    """Series fails the numeric Cauchy-tail convergence criterion."""


class ParameterViolation(RieszmartError):
    """Scalar parameters violate an exact hypothesis of the statement."""


class GeneratorResidual(RieszmartError, AssertionError):
    """A generated increment fails the guard T_{i-1} Y_i = 0: the filtration's
    block weights disagree with its atom weights.  Also an AssertionError,
    the type the guard raised before it had an exit code."""
