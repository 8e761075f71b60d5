"""Exception types shared across the package."""


class HvsimError(Exception):
    """Base class for package-specific failures."""


class InvalidArgumentError(HvsimError, ValueError):
    """A run argument breaks its rule; `argument` names it as the library's
    parameter does (seed, trials, c, theta, tolerance_sigma)."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


class InvalidIndexError(InvalidArgumentError, IndexError):
    """An integer index lies outside the range its sequence has (a basis
    ket's index, a line of the square); an IndexError still."""


class InvalidTypeError(HvsimError, TypeError):
    """An argument is of a type the call does not take; a TypeError still."""


class DimensionMismatchError(HvsimError, ValueError):
    """Operands act on spaces of different dimension."""


class NonHermitianError(HvsimError, ValueError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class EigensolverError(HvsimError, RuntimeError):
    """The underlying eigensolver failed."""


class MalformedDecompositionError(HvsimError, ValueError):
    """Branch weights do not cover the state (cumulative total below 1)."""


class HiddenDrawError(HvsimError, RuntimeError):
    """The uniform source returned a value outside [0, 1), nan included, or
    a scripted source ran out of values."""


class BranchNotFoundError(HvsimError, ValueError):
    """Requested value does not match any eigenvalue branch."""


class OutcomeNotFoundError(HvsimError, KeyError):
    """A report holds no outcome near the requested value; a KeyError still."""


class ZeroProbabilityBranchError(HvsimError, ValueError):
    """update was asked to collapse onto a dead branch, one whose weight the
    selection rule counts as zero. No other entry point raises it."""


class NoncommutingLeavesError(HvsimError, ValueError):
    """Expression leaves are not mutually commuting."""


class MissingLeafValueError(HvsimError, ValueError):
    """Numeric evaluation has no value for one of the expression leaves."""


class ComplexFactorError(HvsimError, ValueError):
    """Numeric evaluation hit a scale factor with a nonzero imaginary part."""


class NotAnEigenstateError(HvsimError, ValueError):
    """The supplied state is not an eigenvector of the target observable."""


class ReferenceRunMismatchError(HvsimError, RuntimeError):
    """A scripted reference run diverged from its frozen expected output."""
