"""Tests for initial experimental designs."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bo.design import latin_hypercube, make_design, random_uniform, sobol_points


DESIGN_FNS = [random_uniform, latin_hypercube, sobol_points]


@pytest.mark.parametrize("fn", DESIGN_FNS, ids=["random", "lhs", "sobol"])
class TestCommon:
    def test_shape(self, fn, rng):
        assert fn(12, 5, rng).shape == (12, 5)

    def test_in_unit_box(self, fn, rng):
        pts = fn(50, 3, rng)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)

    def test_invalid_counts(self, fn):
        with pytest.raises(ValueError):
            fn(0, 2)
        with pytest.raises(ValueError):
            fn(5, 0)

    def test_reproducible(self, fn):
        a = fn(8, 2, np.random.default_rng(4))
        b = fn(8, 2, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)


class TestLatinHypercube:
    @given(n=st.integers(2, 40), dim=st.integers(1, 8))
    def test_property_stratification(self, n, dim):
        """Exactly one sample per 1/n stratum in every dimension."""
        pts = latin_hypercube(n, dim, np.random.default_rng(n * 10 + dim))
        for d in range(dim):
            strata = np.floor(pts[:, d] * n).astype(int)
            strata = np.clip(strata, 0, n - 1)
            assert sorted(strata) == list(range(n))

    def test_better_1d_coverage_than_random(self):
        """LHS max-gap along each axis is bounded by 2/n; random is not."""
        n = 20
        pts = latin_hypercube(n, 2, np.random.default_rng(0))
        for d in range(2):
            gaps = np.diff(np.sort(pts[:, d]))
            assert gaps.max() <= 2.0 / n + 1e-9


class TestSobol:
    def test_low_discrepancy_beats_random_on_mean(self):
        """Sobol points estimate the mean of x0 with lower error."""
        errors_sobol, errors_rand = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            errors_sobol.append(abs(sobol_points(64, 2, rng)[:, 0].mean() - 0.5))
            rng = np.random.default_rng(seed)
            errors_rand.append(abs(random_uniform(64, 2, rng)[:, 0].mean() - 0.5))
        assert np.mean(errors_sobol) < np.mean(errors_rand)


class TestFactory:
    @pytest.mark.parametrize("name", ["random", "lhs", "sobol"])
    def test_names(self, name, rng):
        assert make_design(name, 4, 2, rng).shape == (4, 2)

    def test_unknown(self, rng):
        with pytest.raises(ValueError, match="unknown design"):
            make_design("grid", 4, 2, rng)


class TestLazyScipyStats:
    def test_import_repro_leaves_scipy_stats_unloaded(self):
        """``scipy.stats`` is the slowest import under ``import repro``; only
        the opt-in Sobol design loads it, on first use."""
        code = (
            "import sys, repro\n"
            "from repro.bo.design import make_design\n"
            "print('scipy.stats' in sys.modules)\n"
            "points = make_design('sobol', 8, 3, rng=0)\n"
            "print(points.shape, 'scipy.stats' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            check=True,
        ).stdout.splitlines()
        assert out == ["False", "(8, 3) True"]
