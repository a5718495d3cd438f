"""Weight initializers.

The paper's ensemble (Sec. III-C) relies on *random* initialization to
decorrelate members, so every initializer takes an explicit generator.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def he_normal(shape: tuple[int, int], rng=None) -> np.ndarray:
    """He-normal initialization, the standard choice for ReLU stacks.

    Variance ``2 / fan_in`` keeps activation magnitudes stable through the
    rectifier, which matters here because feature magnitudes enter the GP
    kernel directly (eq. 9).
    """
    rng = ensure_rng(rng)
    fan_in = shape[0]
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(shape: tuple[int, int], rng=None) -> np.ndarray:
    """Glorot/Xavier uniform initialization for tanh/sigmoid layers."""
    rng = ensure_rng(rng)
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-limit, limit, size=shape)
