"""Exception types shared across the package."""


class HarmonicaError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(HarmonicaError):
    """A series, table or expansion is too short for the computation."""


class TruncationCapError(TruncationError):
    """Requested series order exceeds the hard cap."""


class ConvergenceError(HarmonicaError):
    """A truncated series sum did not converge within tolerance."""


class QuadratureError(HarmonicaError):
    """Successive quadrature refinements disagree beyond tolerance."""


class DegeneratePatchError(HarmonicaError):
    """An extracted patch window has zero norm and cannot be normalized."""


class UnsupportedActivationError(HarmonicaError):
    """Unknown activation kind."""


class StructuralError(HarmonicaError):
    """Shape or size mismatch between composed objects."""


class SolverError(HarmonicaError):
    """Linear solve failed; carries a condition-number estimate when known."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class FitError(HarmonicaError):
    """Spectrum decay fit is degenerate."""


class ConfigError(HarmonicaError):
    """CLI configuration failed validation."""


class OutputError(OSError):
    """An output file could not be written; any file already at its path is
    left as it was."""
