"""Exception types shared across the package."""


class HvsimError(Exception):
    """Base class for package-specific failures."""


class InvalidArgumentError(HvsimError, ValueError):
    """A run argument (seed, trials, hidden scalar, tolerance, angle) breaks its rule."""


class DimensionMismatchError(HvsimError, ValueError):
    """Operands act on spaces of different dimension."""


class NonHermitianError(HvsimError, ValueError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class EigensolverError(HvsimError, RuntimeError):
    """The underlying eigensolver failed."""


class MalformedDecompositionError(HvsimError, ValueError):
    """Branch weights do not cover the state (cumulative total below 1)."""


class HiddenDrawError(HvsimError, RuntimeError):
    """The uniform source returned a value outside [0, 1), nan included."""


class BranchNotFoundError(HvsimError, ValueError):
    """Requested value does not match any eigenvalue branch."""


class ZeroProbabilityBranchError(HvsimError, ValueError):
    """Collapse was requested onto a branch of numerically zero weight."""


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
