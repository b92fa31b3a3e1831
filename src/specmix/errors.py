"""Exception types shared across the package, the number checks of every config
validator, and the one reader that builds a config object from JSON."""

import inspect
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


def check_keys(data, allowed, where: str) -> dict:
    """data, checked to be a JSON object whose keys all appear in allowed."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")
    return data


def build_config(cls, data, where: str):
    """cls(**data) for the JSON object data, read from a run config or a checkpoint header.

    The keys cls accepts, and which of them it requires, come from its
    signature. Every way data can be wrong raises a ConfigError that names
    where.
    """
    params = inspect.signature(cls).parameters
    check_keys(data, params, f"{where} ({cls.__name__})")
    missing = [name for name, p in params.items() if p.default is p.empty and name not in data]
    if missing:
        raise ConfigError(f"{where}: missing key(s): {', '.join(missing)}")
    try:
        return cls(**data)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
