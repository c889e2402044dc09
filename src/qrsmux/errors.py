"""Exception types shared across the package."""


class QrsError(Exception):
    """Base class for all package-specific errors."""


class InvalidGateError(QrsError):
    """Gate violates a structural invariant (arity, polarity, wire distinctness)."""


class ResolutionError(QrsError):
    """A wire does not resolve against the circuit's register table."""


class ParseError(QrsError):
    """Interchange document is malformed; message carries field/line context."""


class InvalidDimensionError(QrsError):
    """Dimension is not prime or outside the supported range."""


class LoweringError(QrsError):
    """Circuit contains a gate the requested lowering cannot handle."""


class UnsupportedGateError(QrsError):
    """Simulation met a non-permutation gate, or an affine proof a gate other than X and CX."""


class ResourceLimitError(QrsError):
    """Requested computation exceeds a hard resource bound."""


class UnsupportedConfigurationError(QrsError):
    """Requested construction is outside the supported parameter space."""


class SweepConsistencyError(QrsError):
    """Synthesized gate tally disagrees with the closed-form prediction."""
