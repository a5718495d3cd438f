"""Tests for loss functions."""

import numpy as np
import pytest

from per_member_engine import mse_loss


class TestMSELoss:
    def test_zero_at_target(self):
        pred = np.ones((3, 2))
        loss, grad = mse_loss(pred, pred.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_value(self):
        loss, _ = mse_loss(np.array([[2.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(4.0)

    def test_gradient_matches_numerical(self, rng):
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        _, grad = mse_loss(pred, target)
        eps = 1e-6
        p = pred.copy()
        p[1, 2] += eps
        up, _ = mse_loss(p, target)
        p[1, 2] -= 2 * eps
        down, _ = mse_loss(p, target)
        assert grad[1, 2] == pytest.approx((up - down) / (2 * eps), rel=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 2)), np.zeros((3, 2)))
