"""Exception hierarchy shared across the package."""


class FreespecError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(FreespecError, ValueError):
    """Shapes or tuple lengths are inconsistent with the requested operation."""


class ParameterError(FreespecError, ValueError):
    """An argument violates a documented precondition (range, orthogonality, ...)."""


class PreconditionError(FreespecError, ValueError):
    """The mathematical state of the input rules out the operation
    (interior point handed to a boundary-only certifier, non-member handed
    to a dilation routine, unbounded pencil, ...)."""


class ConstructionError(FreespecError, ValueError):
    """A derived object cannot be built from the given data
    (dependent full-span tuple, non-positive-definite normalization block, ...)."""


class UnsupportedCaseError(FreespecError, ValueError):
    """The input falls outside the registered exact special cases."""


class NumericalError(FreespecError, RuntimeError):
    """A numerical kernel failed: no convergence, or a result that fails its
    own check."""


class TupleFormatError(FreespecError, ValueError):
    """A tuple file on disk is malformed or violates the format invariants."""
