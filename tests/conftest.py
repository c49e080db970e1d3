"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.params import HbmPlatform, DEFAULT_PLATFORM


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the expected CLI outputs under tests/golden/ "
             "instead of comparing against them")


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def platform() -> HbmPlatform:
    """The paper's full 32-PCH platform."""
    return DEFAULT_PLATFORM


@pytest.fixture(scope="session")
def small_platform() -> HbmPlatform:
    """A 2-switch / 8-PCH / 8-master platform for fast fabric tests."""
    return HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024)


@pytest.fixture
def engine_runs(monkeypatch) -> list:
    """A list that gains one entry per ``Engine.run`` call in the test
    (in this process: inline sweeps, not pool workers)."""
    from repro.sim import Engine
    runs: list = []
    real_run = Engine.run

    def counted_run(self, *args, **kwargs):
        runs.append(None)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", counted_run)
    return runs


def run_pattern(fabric, sources, cycles=4000, warmup=1000, outstanding=32):
    """Convenience one-shot simulation used across test modules."""
    from repro.sim import Engine, SimConfig
    cfg = SimConfig(cycles=cycles, warmup=warmup, outstanding=outstanding)
    return Engine(fabric, sources, cfg).run()
