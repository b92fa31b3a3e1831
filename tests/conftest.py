"""Shared pytest hooks for the test suite."""

import enum


def pytest_make_parametrize_id(config, val, argname):
    """Name an enum parameter Class.MEMBER, also when its members are strings (MixingKind)."""
    if isinstance(val, enum.Enum):
        return str(val)
    return None
