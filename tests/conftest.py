"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.sim.stopping import StoppingConfig
from repro.sim.trace import Tracer


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams (seed 12345)."""
    return RandomStreams(12345)


@pytest.fixture
def tracer() -> Tracer:
    """A recording tracer."""
    return Tracer()


@pytest.fixture
def tiny_stopping() -> StoppingConfig:
    """Very loose stopping rule so integration tests finish quickly."""
    return StoppingConfig(
        relative_precision=0.2,
        confidence=0.9,
        batch_size=50,
        warmup=50,
        min_batches=3,
        max_observations=4_000,
    )


@pytest.fixture
def bench_stopping():
    """The 5 %-at-p = 0.95 rule of the ablation checks, by sample cap."""

    def rule(max_observations: int) -> StoppingConfig:
        return StoppingConfig(
            relative_precision=0.05,
            confidence=0.95,
            batch_size=200,
            warmup=200,
            min_batches=5,
            max_observations=max_observations,
        )

    return rule
