"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import LeopardConfig
from repro.crypto.keys import KeyRegistry


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test (examples, full grids)")


@pytest.fixture(scope="session")
def registry4() -> KeyRegistry:
    """A dealt key registry for n=4, f=1 (session-cached: dealing is slow)."""
    return KeyRegistry(4, 1, seed=42)


@pytest.fixture(scope="session")
def registry7() -> KeyRegistry:
    """A dealt key registry for n=7, f=2."""
    return KeyRegistry(7, 2, seed=42)


@pytest.fixture
def config4() -> LeopardConfig:
    """A small, fast Leopard configuration for n=4."""
    return LeopardConfig(
        n=4,
        datablock_size=50,
        bftblock_max_links=5,
        proposal_interval=0.01,
        max_proposal_delay=0.03,
        generation_interval=0.001,
        max_batch_delay=0.02,
        retrieval_timeout=0.05,
        checkpoint_period=4,
        progress_timeout=0.5,
    )
