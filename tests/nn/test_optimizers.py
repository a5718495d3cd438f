"""Tests for the per-member reference engine's Adam optimizer."""

import numpy as np
import pytest

from per_member_engine import Adam


def quadratic_descent(optimizer, start, steps=300):
    """Minimize 0.5*||x||^2; gradient is x."""
    x = np.asarray(start, dtype=float)
    for _ in range(steps):
        x = optimizer.step(x, x)
    return x


class TestAdam:
    def test_converges_on_quadratic(self):
        x = quadratic_descent(Adam(lr=0.1), np.array([5.0, -3.0]), steps=500)
        assert np.linalg.norm(x) < 1e-5

    def test_first_step_size_is_lr(self):
        # with bias correction, the first Adam step has magnitude ~lr
        opt = Adam(lr=0.01)
        x = opt.step(np.array([1.0]), np.array([123.0]))
        np.testing.assert_allclose(x, [1.0 - 0.01], atol=1e-6)

    def test_per_coordinate_adaptation(self):
        # coordinates with very different gradient scales move comparably
        opt = Adam(lr=0.1)
        x = np.array([1.0, 1.0])
        for _ in range(10):
            x = opt.step(x, np.array([1e-3, 1e3]) * np.sign(x))
        assert abs(x[0] - x[1]) < 0.5

    def test_handles_shape_change(self):
        opt = Adam(lr=0.1)
        opt.step(np.zeros(3), np.ones(3))
        out = opt.step(np.zeros(5), np.ones(5))  # state re-initialized
        assert out.shape == (5,)

    def test_reset(self):
        opt = Adam()
        opt.step(np.zeros(2), np.ones(2))
        opt.reset()
        assert opt._t == 0

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)

    def test_rosenbrock_progress(self):
        # Adam should make consistent progress on a curved valley
        def grad(x):
            g0 = -400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0])
            g1 = 200 * (x[1] - x[0] ** 2)
            return np.array([g0, g1])

        opt = Adam(lr=0.02)
        x = np.array([-1.0, 1.0])
        f0 = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        for _ in range(800):
            x = opt.step(x, grad(x))
        f1 = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        assert f1 < f0 * 1e-2
