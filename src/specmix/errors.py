"""Exception types shared across the package, and the integer check of every config validator."""

import numbers


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON true and false parse as bools)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ShapeError(ValueError):
    """Raised when tensor shapes or index ranges disagree with an op's contract."""


class ConfigError(ValueError):
    """Raised on invalid or unknown configuration content."""


class CheckpointError(ValueError):
    """Raised on malformed, corrupt, or incompatible checkpoint files."""


class TrainingError(RuntimeError):
    """Raised when training hits a non-recoverable numeric state."""
