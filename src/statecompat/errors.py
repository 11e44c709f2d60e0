"""Exception types raised across the package.

Everything derives from :class:`StateCompatError`, which is itself a
``ValueError`` so that callers who do not care about the fine-grained type can
catch a single class. The class names double as the diagnostic codes printed
by the command-line front end (with the ``Error`` suffix stripped).
"""


class StateCompatError(ValueError):
    """Base class for all validation and computation errors in this package."""


class NotSquareError(StateCompatError):
    """A matrix that must be square is not."""


class NotHermitianError(StateCompatError):
    """Hermiticity defect exceeds the comparison tolerance."""


class NotPositiveError(StateCompatError):
    """An eigenvalue is negative beyond the rank tolerance."""


class TraceNotOneError(StateCompatError):
    """Trace differs from one beyond tolerance."""


class NumericalFailureError(StateCompatError):
    """The underlying eigensolver or factorization did not converge."""


class DimensionMismatchError(StateCompatError):
    """Operands live in spaces of different or inconsistent dimensions."""


class StateOutsideSupportError(StateCompatError):
    """A state required to lie in the support of a density matrix does not.

    Equivalently, the state has a component in the null space, so no ensemble
    for the density matrix can contain it.
    """


class CommonStateMismatchError(StateCompatError):
    """The leading ensemble states do not agree on a single shared state."""


class IncompatibleError(StateCompatError):
    """The density matrices share no common support state."""


class InstanceFormatError(StateCompatError):
    """An instance or report file does not match the documented schema."""
