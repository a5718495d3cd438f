"""Tests for the Linear layer: forward math and backward gradients."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from per_member_engine import Linear


def numerical_grad(fn, arr, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. arr (in place)."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        up = fn()
        arr[idx] = orig - eps
        down = fn()
        arr[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


class TestLinearForward:
    def test_matches_matmul(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_shape_validation(self, rng):
        layer = Linear(3, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((5, 4)))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)


class TestLinearBackward:
    def test_weight_gradient_matches_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss():
            out = layer.forward(x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(out - target)
        num = numerical_grad(loss, layer.weight)
        np.testing.assert_allclose(layer.grad_weight, num, rtol=1e-5, atol=1e-7)

    def test_bias_gradient_matches_numerical(self, rng):
        layer = Linear(2, 2, rng=rng)
        x = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(out - target)
        num = numerical_grad(loss, layer.bias)
        np.testing.assert_allclose(layer.grad_bias, num, rtol=1e-5, atol=1e-7)

    def test_input_gradient(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(5, 3))
        grad_out = rng.normal(size=(5, 2))
        layer.forward(x)
        grad_in = layer.backward(grad_out)
        np.testing.assert_allclose(grad_in, grad_out @ layer.weight.T)

    def test_gradients_accumulate(self, rng):
        layer = Linear(2, 2, rng=rng)
        x = rng.normal(size=(3, 2))
        grad_out = rng.normal(size=(3, 2))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        once = layer.grad_weight.copy()
        layer.forward(x)
        layer.backward(grad_out)
        np.testing.assert_allclose(layer.grad_weight, 2 * once)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(2, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    @given(n=st.integers(1, 8), din=st.integers(1, 5), dout=st.integers(1, 5))
    def test_property_shapes(self, n, din, dout):
        layer = Linear(din, dout, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(n, din))
        out = layer.forward(x)
        assert out.shape == (n, dout)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == (n, din)
