"""Exception types shared across the library, and its one integer-argument check.

Every error raised on purpose by lsvkit derives from LsvError, so callers
can catch the whole family with one clause while still distinguishing the
specific failure modes below.  as_int raises whichever of them, or
ValueError, its caller documents.
"""

import operator


class LsvError(Exception):
    """Base class for all lsvkit errors."""


class NonSquare(LsvError):
    """A square matrix was required but a rectangular one was supplied."""


class SingularMatrix(LsvError):
    """The matrix failed the pivot-based invertibility test."""


class DimensionMismatch(LsvError):
    """Operand dimensions are incompatible."""


class NumericallyDependent(LsvError):
    """Orthonormalization hit a residual too small to trust.

    ``index`` is the position (0-based) of the offending input vector.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"vector {index} is numerically dependent on its predecessors")


class InvalidDimension(LsvError):
    """A dimension argument is outside the supported range."""


class DegenerateGeometry(LsvError):
    """A norm or distance underflowed the trust threshold (1e-12)."""


class InvalidQuery(LsvError):
    """A query object or a CLI argument carries out-of-range parameters (CLI exit code 2)."""


class EnumerationTooLarge(LsvError):
    """Exact enumeration would exceed the configured state budget."""


class InsufficientData(LsvError):
    """Not enough distinct data points to fit the requested model."""


def as_int(name: str, value, lo: int, hi: int | None = None, error: type = ValueError) -> int:
    """value as a Python int in [lo, hi] (no upper bound for hi None), else error(message).

    The one integer-argument check of the package.  operator.index lets
    Python and numpy integers through and stops floats, strings and None;
    the message names the argument and the bound.
    """
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    try:
        i = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer {bound}, got {value!r}") from None
    if i < lo or (hi is not None and i > hi):
        raise error(f"{name} must be {bound}, got {i}")
    return i
