"""Shared exception types."""

__all__ = [
    "SphereHessError", "RankMismatch", "UnsupportedSigma", "InconsistentSystem",
    "DomainError", "QuadratureFailure", "FitUnstable", "ParityError",
    "ZeroCovector", "PreconditionViolation", "Degenerate",
]


class SphereHessError(Exception):
    """Base class for all library errors."""


class RankMismatch(SphereHessError):
    """Weight tuple has the wrong length for the stated group rank."""


class UnsupportedSigma(SphereHessError):
    """Bundle weight outside the supported closed-form families."""


class InconsistentSystem(SphereHessError):
    """Spectrum recursion produced contradictory values on some edge."""


class DomainError(SphereHessError):
    """Argument outside the operation's domain."""


class QuadratureFailure(SphereHessError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class FitUnstable(SphereHessError):
    """Regular-part extraction error estimate exceeds its fixed bound."""


class ParityError(SphereHessError):
    """Operation requires the opposite parity of the dimension."""


class ZeroCovector(SphereHessError):
    """Symbol evaluation requires a nonzero covector."""


class PreconditionViolation(SphereHessError):
    """Input violates a documented precondition."""


class Degenerate(SphereHessError):
    """Geometric object is degenerate (not invertible / not conformal)."""
