"""Tests for activation layers: values and derivatives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from per_member_engine import LeakyReLU, make_activation
from repro.nn.activations import ACTIVATIONS, LEAKY_SLOPE, Activation

#: every activation name, with the per-member class name as its test id
ALL = list(ACTIVATIONS)
IDS = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Softplus", "Identity"]


@pytest.mark.parametrize("name", ALL, ids=IDS)
class TestDerivativesNumerically:
    def test_derivative_matches_finite_difference(self, name, rng):
        layer = Activation(name)
        # avoid the ReLU kink at exactly 0
        x = rng.normal(size=(4, 3))
        x[np.abs(x) < 1e-3] = 0.5
        eps = 1e-6
        up = layer._value(x + eps)
        down = layer._value(x - eps)
        numeric = (up - down) / (2 * eps)
        layer.forward(x)
        analytic = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_backward_scales_upstream(self, name, rng):
        layer = Activation(name)
        x = rng.normal(size=(3, 3)) + 0.2
        upstream = rng.normal(size=(3, 3))
        layer.forward(x)
        grad = layer.backward(upstream)
        layer.forward(x)
        unit = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, upstream * unit)

    def test_bitwise_equal_to_per_member_layer(self, name):
        """Forward and backward match the reference engine's numpy layer
        bit for bit, signed zeros, subnormals, the sigmoid clamp and
        infinities included."""
        edges = [0.0, 1e-320, 1.0, 60.0, 61.0, np.inf, 0.3, 2.5]
        x = np.array([[*edges, *(-v for v in edges)]])
        upstream = np.random.default_rng(1).normal(size=x.shape)
        ours, reference = Activation(name), make_activation(name)
        assert ours.forward(x).tobytes() == reference.forward(x).tobytes()
        assert ours.backward(upstream).tobytes() == reference.backward(upstream).tobytes()


class TestReLU:
    def test_values(self):
        layer = Activation("relu")
        np.testing.assert_allclose(
            layer.forward(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]]
        )

    def test_derivative_zero_in_negative_region(self):
        layer = Activation("relu")
        layer.forward(np.array([[-5.0]]))
        assert layer.backward(np.array([[1.0]]))[0, 0] == 0.0


class TestLeakyReLU:
    def test_negative_slope(self):
        layer = Activation("leaky_relu")
        np.testing.assert_allclose(
            layer.forward(np.array([[-2.0]])), [[-2.0 * LEAKY_SLOPE]]
        )

    def test_rejects_negative_alpha(self):
        # the slope is a constant in src; the reference layer validates its own
        with pytest.raises(ValueError):
            LeakyReLU(alpha=-0.5)


class TestSigmoidStability:
    def test_extreme_inputs_finite(self):
        layer = Activation("sigmoid")
        out = layer.forward(np.array([[-1e4, 1e4]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestSoftplus:
    def test_positive_everywhere(self, rng):
        layer = Activation("softplus")
        out = layer.forward(rng.normal(size=(5, 5)) * 10)
        assert np.all(out >= 0)

    def test_large_input_linear(self):
        layer = Activation("softplus")
        np.testing.assert_allclose(
            layer.forward(np.array([[50.0]])), [[50.0]], rtol=1e-12
        )


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["relu", "leaky_relu", "tanh", "sigmoid", "softplus", "identity"]
    )
    def test_known_names(self, name):
        assert Activation(name).name == name

    def test_case_insensitive(self):
        assert Activation("ReLU").name == "relu"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Activation("swish")

    @given(st.sampled_from(["relu", "tanh", "identity"]))
    def test_property_monotone_nondecreasing(self, name):
        layer = Activation(name)
        x = np.sort(np.random.default_rng(0).normal(size=50))
        y = layer.forward(x.reshape(1, -1)).ravel()
        assert np.all(np.diff(y) >= -1e-12)
