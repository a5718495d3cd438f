"""Tests for Sequential and the make_mlp builder."""

import numpy as np
import pytest

from per_member_engine import Linear, ReLU, Sequential, make_mlp


class TestSequential:
    def test_forward_composes(self, rng):
        l1, l2 = Linear(2, 3, rng=rng), Linear(3, 1, rng=rng)
        net = Sequential([l1, l2])
        x = rng.normal(size=(4, 2))
        np.testing.assert_allclose(net.forward(x), l2.forward(l1.forward(x)))

    def test_backward_chains_full_network_gradient(self, rng):
        net = make_mlp(3, (5,), 2, activation="tanh", rng=rng)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 2))

        def loss():
            return 0.5 * float(np.sum((net.forward(x) - target) ** 2))

        out = net.forward(x)
        net.zero_grad()
        net.backward(out - target)
        analytic = net.get_flat_grads()
        # numerical check on the flat parameter vector
        params = net.get_flat_params()
        eps = 1e-6
        numeric = np.zeros_like(params)
        for i in range(params.size):
            p = params.copy()
            p[i] += eps
            net.set_flat_params(p)
            up = loss()
            p[i] -= 2 * eps
            net.set_flat_params(p)
            down = loss()
            numeric[i] = (up - down) / (2 * eps)
        net.set_flat_params(params)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_flat_params_roundtrip(self, rng):
        net = make_mlp(2, (4, 4), 3, rng=rng)
        flat = net.get_flat_params()
        net.set_flat_params(np.zeros_like(flat))
        assert np.all(net.get_flat_params() == 0.0)
        net.set_flat_params(flat)
        np.testing.assert_array_equal(net.get_flat_params(), flat)

    def test_set_flat_params_wrong_size(self, rng):
        net = make_mlp(2, (4,), 1, rng=rng)
        with pytest.raises(ValueError):
            net.set_flat_params(np.zeros(net.num_params + 1))

    def test_num_params_counts_weights_and_biases(self, rng):
        net = make_mlp(3, (5,), 2, rng=rng)
        assert net.num_params == (3 * 5 + 5) + (5 * 2 + 2)


class TestMakeMlp:
    def test_paper_architecture_four_fc_layers(self, rng):
        """Sec. III-A: input layer, 2 hidden layers, output layer, ReLU."""
        net = make_mlp(10, (50, 50), 50, activation="relu", rng=rng)
        linears = [layer for layer in net.layers if isinstance(layer, Linear)]
        relus = [layer for layer in net.layers if isinstance(layer, ReLU)]
        assert len(linears) == 3  # three weight matrices connect 4 layers
        assert len(relus) >= 2
        assert linears[0].in_dim == 10
        assert linears[-1].out_dim == 50

    def test_output_shape(self, rng):
        net = make_mlp(4, (8, 8), 6, rng=rng)
        out = net.forward(rng.normal(size=(7, 4)))
        assert out.shape == (7, 6)

    def test_identity_output_unbounded(self, rng):
        net = make_mlp(1, (4,), 1, output_activation="identity", rng=rng)
        out = net.forward(np.array([[100.0]]))
        assert np.all(np.isfinite(out))

    def test_tanh_output_bounded(self, rng):
        net = make_mlp(1, (4,), 3, output_activation="tanh", rng=rng)
        out = net.forward(rng.normal(size=(10, 1)) * 100)
        assert np.all(np.abs(out) <= 1.0)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            make_mlp(0, (4,), 1)
        with pytest.raises(ValueError):
            make_mlp(2, (0,), 1)

    def test_seeded_reproducibility(self):
        a = make_mlp(3, (5,), 2, rng=11).get_flat_params()
        b = make_mlp(3, (5,), 2, rng=11).get_flat_params()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_mlp(3, (5,), 2, rng=1).get_flat_params()
        b = make_mlp(3, (5,), 2, rng=2).get_flat_params()
        assert not np.allclose(a, b)
