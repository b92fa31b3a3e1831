"""Exception types shared across the package, and the number checks of every config validator."""

import math
import numbers


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true and false parse as bools)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


class ShapeError(ValueError):
    """Raised when tensor shapes or index ranges disagree with an op's contract."""


class ConfigError(ValueError):
    """Raised on invalid or unknown configuration content."""


class CheckpointError(ValueError):
    """Raised on malformed, corrupt, or incompatible checkpoint files."""


class TrainingError(RuntimeError):
    """Raised when training hits a non-recoverable numeric state."""
