"""Tests for the stacked network layers and the stacked Adam optimizer.

The batched surrogate engine's contract is *exact per-slice equivalence*:
slice ``s`` of every stacked operation must reproduce what the matching
per-member object computes, bit for bit.  These tests pin that contract at
the layer level.
"""

import numpy as np
import pytest

from per_member_engine import Adam, Linear, make_mlp
from repro.nn import BatchedLinear, StackedAdam, make_batched_mlp


def paired_rngs(seeds):
    """Two independent generators per seed (same streams twice)."""
    return (
        [np.random.default_rng(s) for s in seeds],
        [np.random.default_rng(s) for s in seeds],
    )


class TestBatchedLinear:
    SEEDS = [5, 6, 7]

    def test_forward_matches_per_slice_linear(self):
        rngs_a, rngs_b = paired_rngs(self.SEEDS)
        batched = BatchedLinear(4, 3, rngs=rngs_a)
        singles = [Linear(4, 3, rng=rng) for rng in rngs_b]
        x = np.random.default_rng(0).normal(size=(len(self.SEEDS), 7, 4))
        out = batched.forward(x)
        assert out.shape == (3, 7, 3)
        for s, single in enumerate(singles):
            np.testing.assert_array_equal(out[s], single.forward(x[s]))

    def test_shared_2d_input_broadcasts(self):
        rngs_a, rngs_b = paired_rngs(self.SEEDS)
        batched = BatchedLinear(4, 3, rngs=rngs_a)
        singles = [Linear(4, 3, rng=rng) for rng in rngs_b]
        x = np.random.default_rng(1).normal(size=(7, 4))
        out = batched.forward(x)
        for s, single in enumerate(singles):
            np.testing.assert_array_equal(out[s], single.forward(x))

    def test_backward_matches_per_slice_linear(self):
        rngs_a, rngs_b = paired_rngs(self.SEEDS)
        batched = BatchedLinear(4, 3, rngs=rngs_a)
        singles = [Linear(4, 3, rng=rng) for rng in rngs_b]
        x = np.random.default_rng(2).normal(size=(3, 7, 4))
        g = np.random.default_rng(3).normal(size=(3, 7, 3))
        batched.forward(x)
        grad_in = batched.backward(g)
        for s, single in enumerate(singles):
            single.forward(x[s])
            expected_in = single.backward(g[s])
            np.testing.assert_array_equal(grad_in[s], expected_in)
            np.testing.assert_array_equal(batched.grad_weight[s], single.grad_weight)
            np.testing.assert_array_equal(batched.grad_bias[s], single.grad_bias)

    def test_shape_validation(self):
        batched = BatchedLinear(4, 3, rngs=[np.random.default_rng(0)])
        with pytest.raises(ValueError):
            batched.forward(np.zeros((1, 7, 5)))  # wrong in_dim
        with pytest.raises(ValueError):
            batched.forward(np.zeros((2, 7, 4)))  # wrong stack size
        with pytest.raises(ValueError):
            batched.forward(np.zeros(4))  # 1-D
        with pytest.raises(ValueError):
            BatchedLinear(0, 3, rngs=[np.random.default_rng(0)])
        with pytest.raises(ValueError):
            BatchedLinear(4, 3, rngs=[])


class TestBatchedSequential:
    SEEDS = [11, 12]

    def make_pair(self):
        rngs_a, rngs_b = paired_rngs(self.SEEDS)
        batched = make_batched_mlp(3, (6, 6), 4, rngs_a, output_activation="tanh")
        singles = [
            make_mlp(3, (6, 6), 4, rng=rng, output_activation="tanh")
            for rng in rngs_b
        ]
        return batched, singles

    def test_initial_weights_match_make_mlp(self):
        batched, singles = self.make_pair()
        stacked = batched.get_stacked_params()
        assert stacked.shape == (2, singles[0].num_params)
        for s, single in enumerate(singles):
            np.testing.assert_array_equal(stacked[s], single.get_flat_params())

    def test_forward_backward_match(self):
        batched, singles = self.make_pair()
        x = np.random.default_rng(4).normal(size=(9, 3))
        g = np.random.default_rng(5).normal(size=(2, 9, 4))
        out = batched.forward(x)
        batched.zero_grad()
        batched.backward(g)
        grads = batched.get_stacked_grads()
        for s, single in enumerate(singles):
            np.testing.assert_array_equal(out[s], single.forward(x))
            single.zero_grad()
            single.backward(g[s])
            np.testing.assert_array_equal(grads[s], single.get_flat_grads())

    def test_stacked_params_roundtrip(self):
        batched, _ = self.make_pair()
        flat = batched.get_stacked_params()
        perturbed = flat + 0.5
        batched.set_stacked_params(perturbed)
        np.testing.assert_array_equal(batched.get_stacked_params(), perturbed)

    def test_set_stacked_params_validates_shape(self):
        batched, _ = self.make_pair()
        with pytest.raises(ValueError):
            batched.set_stacked_params(np.zeros((2, 3)))

    def test_num_params_per_slice(self):
        batched, singles = self.make_pair()
        assert batched.num_params_per_slice == singles[0].num_params


class TestStackedAdam:
    def test_matches_per_slice_adam(self):
        rng = np.random.default_rng(0)
        s_stack, p = 3, 17
        params = rng.normal(size=(s_stack, p))
        stacked = StackedAdam(lr=3e-3)
        singles = [Adam(lr=3e-3) for _ in range(s_stack)]
        serial_params = params.copy()
        for step in range(25):
            grads = rng.normal(size=(s_stack, p))
            params = stacked.step(params, grads)
            for s in range(s_stack):
                serial_params[s] = singles[s].step(serial_params[s], grads[s])
            np.testing.assert_array_equal(params, serial_params)

    def test_mask_freezes_rows(self):
        rng = np.random.default_rng(1)
        params = rng.normal(size=(2, 5))
        frozen_row = params[1].copy()
        opt = StackedAdam()
        out = opt.step(params, rng.normal(size=(2, 5)), mask=np.array([True, False]))
        assert not np.array_equal(out[0], params[0])
        np.testing.assert_array_equal(out[1], frozen_row)

    def test_masked_step_matches_serial_skip(self):
        """A row masked out one step must continue exactly like a serial
        Adam that skipped that step."""
        rng = np.random.default_rng(2)
        params = rng.normal(size=(2, 5))
        grads = [rng.normal(size=(2, 5)) for _ in range(4)]
        stacked = StackedAdam()
        p = params.copy()
        p = stacked.step(p, grads[0])
        p = stacked.step(p, grads[1], mask=np.array([True, False]))
        p = stacked.step(p, grads[2])

        serial = Adam()
        q = params[1].copy()
        q = serial.step(q, grads[0][1])
        # step 1 skipped for row 1
        q = serial.step(q, grads[2][1])
        np.testing.assert_array_equal(p[1], q)

    def test_reset_slices_matches_serial_reset(self):
        rng = np.random.default_rng(3)
        params = rng.normal(size=(2, 5))
        grads = [rng.normal(size=(2, 5)) for _ in range(4)]
        stacked = StackedAdam()
        p = params.copy()
        p = stacked.step(p, grads[0])
        stacked.reset_slices(np.array([False, True]))
        p = stacked.step(p, grads[1])

        serial = Adam()
        q = params[1].copy()
        q = serial.step(q, grads[0][1])
        serial.reset()
        q = serial.step(q, grads[1][1])
        np.testing.assert_array_equal(p[1], q)

    def test_nonfinite_grads_in_masked_rows_are_harmless(self):
        params = np.ones((2, 3))
        opt = StackedAdam()
        grads = np.array([[1.0, 2.0, 3.0], [np.inf, np.nan, -np.inf]])
        out = opt.step(params, grads, mask=np.array([True, False]))
        assert np.all(np.isfinite(out[0]))
        np.testing.assert_array_equal(out[1], params[1])

    def test_rejects_1d_params(self):
        with pytest.raises(ValueError):
            StackedAdam().step(np.zeros(5), np.zeros(5))
