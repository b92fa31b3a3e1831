"""Shared pytest hooks and fixtures for the test suite."""

import enum

import pytest

from specmix import bench


def pytest_make_parametrize_id(config, val, argname):
    """Name an enum parameter Class.MEMBER, also when its members are strings (MixingKind)."""
    if isinstance(val, enum.Enum):
        return str(val)
    return None


class FakeOpenBLAS:
    """A library's thread count behind a (get, set) pair; a stuck one ignores its setter."""

    def __init__(self, threads: int, stuck: bool):
        self.threads, self.stuck, self.set_to = threads, stuck, []

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.set_to.append(threads)
        if not self.stuck:
            self.threads = threads


@pytest.fixture
def fake_openblas(monkeypatch):
    """Stand fakes in for the loaded OpenBLAS libraries, none until added.

    `fake_openblas(threads, stuck=False)` adds one reading `threads` and returns it.
    """
    libs = []
    monkeypatch.setattr(bench, "_openblas_calls", lambda: [(lib.get, lib.set) for lib in libs])

    def add(threads: int, stuck: bool = False) -> FakeOpenBLAS:
        libs.append(FakeOpenBLAS(threads, stuck))
        return libs[-1]

    return add
