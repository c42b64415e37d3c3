"""Exception types shared across the package.

Two broad families matter to callers: data/usage problems (bad files,
bad arguments, unfittable inputs) and numerical-integrity problems
(degenerate decompositions, impossible conditioning, broken invariants).
The command line maps the first family to exit code 2 and the second to
exit code 3.
"""


class TnadError(Exception):
    """Base class for all package-specific errors."""


class DataError(TnadError, ValueError):
    """Invalid data, file, or argument supplied by the caller."""


class DimensionError(DataError):
    """Tensor axis extents or ranks are inconsistent with the operation."""


class FitError(DataError):
    """A preprocessing component cannot be fitted to the given data."""


class NumericalError(TnadError, ArithmeticError):
    """A numerical-integrity invariant was violated."""


class DegenerateInputError(NumericalError):
    """An input is numerically degenerate (e.g. an all-zero matrix)."""


class ConditioningError(NumericalError):
    """Conditioning produced a distribution of (near-)zero total weight."""


class ResourceLimitError(TnadError, RuntimeError):
    """A requested computation exceeds the configured size budget."""
