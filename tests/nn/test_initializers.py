"""Tests for weight initializers."""

import numpy as np

from repro.nn.initializers import he_normal, xavier_uniform


class TestHeNormal:
    def test_shape(self):
        assert he_normal((10, 5), rng=0).shape == (10, 5)

    def test_variance_scales_with_fan_in(self):
        w = he_normal((2000, 4), rng=0)
        assert abs(w.var() - 2.0 / 2000) < 0.3 * (2.0 / 2000)

    def test_reproducible(self):
        np.testing.assert_array_equal(he_normal((3, 3), rng=5), he_normal((3, 3), rng=5))


class TestXavierUniform:
    def test_bounds(self):
        w = xavier_uniform((50, 50), rng=0)
        limit = np.sqrt(6.0 / 100)
        assert np.all(np.abs(w) <= limit)

    def test_mean_near_zero(self):
        w = xavier_uniform((100, 100), rng=0)
        assert abs(w.mean()) < 0.01

