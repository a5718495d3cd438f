"""Initial experimental designs over the unit box.

Algorithm 1 begins with a randomly generated training set; Latin-hypercube
sampling is the default because with 30 samples in 10 dimensions (Table I
setting) pure uniform sampling frequently leaves whole coordinate ranges
unexplored.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def random_uniform(n: int, dim: int, rng=None) -> np.ndarray:
    """Uniform i.i.d. samples in ``[0, 1]^dim``, shape ``(n, dim)``."""
    _check_counts(n, dim)
    rng = ensure_rng(rng)
    return rng.uniform(0.0, 1.0, size=(n, dim))


def latin_hypercube(n: int, dim: int, rng=None) -> np.ndarray:
    """Latin-hypercube design: one sample per axis-aligned stratum.

    Each coordinate column is a random permutation of the ``n`` strata with
    a uniform jitter inside each stratum, guaranteeing marginal coverage.
    """
    _check_counts(n, dim)
    rng = ensure_rng(rng)
    samples = np.empty((n, dim))
    strata = (np.arange(n) + 0.0) / n
    width = 1.0 / n
    for d in range(dim):
        jitter = rng.uniform(0.0, width, size=n)
        samples[:, d] = rng.permutation(strata + jitter)
    return np.clip(samples, 0.0, 1.0)


def sobol_points(n: int, dim: int, rng=None) -> np.ndarray:
    """Scrambled Sobol low-discrepancy points (via scipy.stats.qmc).

    ``scipy.stats`` is imported here, not at module level: it is the
    slowest import under ``import repro`` and only this opt-in design
    needs it.
    """
    from scipy.stats import qmc

    _check_counts(n, dim)
    rng = ensure_rng(rng)
    seed = int(rng.integers(0, 2**31 - 1))
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    return sampler.random(n)


DESIGNS = {
    "random": random_uniform,
    "lhs": latin_hypercube,
    "sobol": sobol_points,
}


def make_design(name: str, n: int, dim: int, rng=None) -> np.ndarray:
    """Generate an initial design by name (``random``/``lhs``/``sobol``)."""
    try:
        fn = DESIGNS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown design {name!r}; choose from {sorted(DESIGNS)}"
        ) from None
    return fn(n, dim, rng)


def _check_counts(n: int, dim: int):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
