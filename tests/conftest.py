"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# keep property tests fast and deterministic in CI
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def fast_trainer():
    """A per-member FeatureGPTrainer configured for speed in unit tests."""
    from per_member_engine import FeatureGPTrainer

    return FeatureGPTrainer(epochs=60, lr=1e-2, patience=None)


@pytest.fixture
def tiny_nngp():
    """Small per-member NeuralFeatureGP factory for fast tests."""
    from per_member_engine import NeuralFeatureGP

    def make(input_dim=2, seed=0, **kwargs):
        defaults = dict(hidden_dims=(12, 12), n_features=8)
        defaults.update(kwargs)
        return NeuralFeatureGP(input_dim, seed=seed, **defaults)

    return make
