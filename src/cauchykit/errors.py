"""Exception types shared across the toolkit."""


class CauchyKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidGridError(CauchyKitError):
    """Quadrature grid violates a rule precondition (node count, parity)."""


class DomainError(CauchyKitError):
    """A point lies outside the domain an operation requires."""


class OnContourError(DomainError):
    """Target lies on the contour; use a boundary-value routine instead."""


class EndpointError(DomainError):
    """Target falls inside the excluded margin around an arc endpoint."""


class NonFiniteError(CauchyKitError):
    """A sampled integrand value is NaN or infinite."""


class CapabilityError(CauchyKitError):
    """Density lacks a capability (derivative order, smoothness) needed here."""


class ContractError(CauchyKitError):
    """Declared metadata contradicts an operation's contract."""


class PrescriptionError(CauchyKitError):
    """Invalid singularity prescription."""


class AccuracyWarning(RuntimeWarning):
    """A result was computed, but its accuracy is degraded (a near-zone
    target, unresolved samples, slow convergence, interior singularities)."""


class ParseError(CauchyKitError):
    """Malformed input data file."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
