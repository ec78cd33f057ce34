"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DrinfeldError(Exception):
    """Base class for all package errors."""


class InvalidParameters(DrinfeldError):
    """Caller passed parameters outside the supported domain."""


class NegativeValuation(DrinfeldError):
    """Reduction requested for a scalar that is not integral."""


class ResidueFieldMismatch(DrinfeldError):
    """Mixing of residue data living over different primes."""


class ZeroFunction(DrinfeldError):
    """The zero function was passed where a nonzero one is required."""


class SingularMatrix(DrinfeldError):
    """A matrix with determinant zero was used where invertibility is required."""


class PoleInsideAnnulus(DrinfeldError):
    """A pole sits strictly inside the expansion annulus, so no Laurent series exists."""


class InternalInvariantError(DrinfeldError):
    """An internal consistency check failed; indicates a bug, not bad input."""
