"""Benchmark-suite configuration.

Benchmarks regenerate the paper's tables at *scaled-down* budgets so the
whole suite runs in minutes (the paper-scale runs live in
``repro.experiments`` and take hours).  Each bench prints the rows it
reproduces and attaches them to pytest-benchmark's ``extra_info`` so the
JSON export carries the reproduction data alongside the timings.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

# the per-member reference engine (``tests/per_member_engine.py``) is the
# loop baseline ``bench_batched_engine.py`` measures the stacked engine against
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(autouse=True)
def _seed_numpy():
    """Benchmarks must be deterministic run-to-run."""
    np.random.seed(0)
