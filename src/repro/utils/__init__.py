"""Shared utilities: scaling, RNG handling, validation, CPU count.

The bottom layer: it imports nothing else of ``repro``, so every package
can use it.
"""

import os

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.scaling import BoxScaler, StandardScaler
from repro.utils.validation import (
    check_box_bounds,
    check_finite,
    check_matrix_2d,
    check_vector_1d,
)

#: ceiling on the *default* pool size: simulation workloads saturate well
#: before the core counts of large hosts, and oversized default pools only
#: add fork/teardown latency.  Explicit ``n_workers`` is never capped.
MAX_DEFAULT_WORKERS = 8


def default_pool_workers() -> int:
    """Default worker count for pooled executors and split fits: the
    usable CPUs, capped.

    Usable means this process's CPU affinity where the platform reports
    it, so a cpuset or ``taskset`` limit does not oversubscribe the pools
    (``os.cpu_count()`` counts the whole host).  Callers read it through
    this module at call time, so one ``monkeypatch.setattr`` of
    ``repro.utils.default_pool_workers`` reaches the evaluation pools and
    the slice workers of a split fit alike.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(1, min(usable, MAX_DEFAULT_WORKERS))


__all__ = [
    "BoxScaler",
    "MAX_DEFAULT_WORKERS",
    "StandardScaler",
    "check_box_bounds",
    "check_finite",
    "check_matrix_2d",
    "check_vector_1d",
    "default_pool_workers",
    "ensure_rng",
    "spawn_rngs",
]
