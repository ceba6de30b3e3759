"""Exception and warning types shared across the package."""


class LatticeSizeError(ValueError):
    """Lattice side is not an odd prime."""


class DimensionMismatchError(ValueError):
    """State vector length does not match the lattice."""


class DomainError(ValueError):
    """A parameter precondition (sign, range, zero test) is violated."""


class ClassificationError(ValueError):
    """Symmetry classification received inconsistent or malformed input."""


class BracketError(RuntimeError):
    """Root bracketing failed; carries the endpoint diagnostics."""

    def __init__(self, message, a_lo=None, a_hi=None, f_lo=None, f_hi=None):
        super().__init__(message)
        self.a_lo = a_lo
        self.a_hi = a_hi
        self.f_lo = f_lo
        self.f_hi = f_hi


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; carries the failing time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class InvarianceError(RuntimeError):
    """A state handed to a fixed-point-space integration is not in that space."""


class DegenerateCouplingWarning(UserWarning):
    """Equal coupling weights collapse pairs of mode frequencies."""
