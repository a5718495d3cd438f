"""Tests for the batched surrogate engine (stacked GP + SurrogateBank).

The engine's headline contract: training and predicting S stacked models
is *numerically equivalent* to fitting the S members one by one — the
seeded equivalence tests here pin batched-vs-loop agreement to <= 1e-8
(means are bitwise identical by construction) against the per-member
reference engine in ``tests/per_member_engine.py``.
"""

import numpy as np
import pytest

from per_member_engine import (
    DeepEnsemble,
    FeatureGPTrainer,
    NeuralFeatureGP,
    serial_reference_bank,
)
from repro.acquisition.thompson import BankThompsonAcquisition
from repro.core import BatchedFeatureGPTrainer, BatchedNeuralFeatureGP, SurrogateBank

KW = dict(hidden_dims=(12, 12), n_features=8)


def make_data(n=24, d=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    targets = np.stack(
        [
            np.sin(3.0 * x[:, 0]) + x[:, 1],
            np.cos(2.0 * x[:, 1]) - 0.5 * x[:, 2],
        ]
    )
    return x, targets


class TestBatchedNeuralFeatureGP:
    def test_construction_and_shapes(self):
        gp = BatchedNeuralFeatureGP(3, n_stack=4, seed=0, **KW)
        assert gp.n_stack == 4
        assert gp.feature_dim == 9  # 8 features + bias column
        assert gp.noise_variance.shape == (4,)
        feats = gp.features(np.zeros((5, 3)))
        assert feats.shape == (4, 5, 9)
        np.testing.assert_array_equal(feats[:, :, -1], np.ones((4, 5)))

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchedNeuralFeatureGP(3, n_stack=0, **KW)
        with pytest.raises(ValueError):
            BatchedNeuralFeatureGP(3, n_stack=2, noise_variance=-1.0, **KW)
        with pytest.raises(ValueError):
            BatchedNeuralFeatureGP(3, n_stack=2, seed=[0], **KW)  # wrong count
        gp = BatchedNeuralFeatureGP(3, n_stack=2, seed=0, **KW)
        x, targets = make_data()
        with pytest.raises(ValueError):
            gp.fit(x, np.zeros((3, x.shape[0])))  # wrong target stack
        with pytest.raises(RuntimeError):
            gp.predict(x)  # not fitted

    def test_marginal_nll_matches_serial(self):
        """Stacked NLL and gradients == per-member values on shared data."""
        x, targets = make_data()
        seeds = [21, 22]
        serial = [NeuralFeatureGP(3, seed=np.random.default_rng(s), **KW) for s in seeds]
        batched = BatchedNeuralFeatureGP(
            3, n_stack=2, seed=[np.random.default_rng(s) for s in seeds], **KW
        )
        z = np.stack([targets[0], targets[1]])
        feats_b = batched.features(x)
        nll_b, dfeats_b, dln_b, dlp_b = batched.marginal_nll(feats_b, z, with_grads=True)
        for s, model in enumerate(serial):
            feats_s = model.features(x)
            nll_s, dfeats_s, dln_s, dlp_s = model.marginal_nll(
                feats_s, z[s], with_grads=True
            )
            assert nll_b[s] == nll_s
            np.testing.assert_array_equal(dfeats_b[s], dfeats_s)
            assert dln_b[s] == dln_s and dlp_b[s] == dlp_s

    def test_seeded_training_equivalence(self):
        """Full fit: batched predictions == per-member loop within 1e-8.

        Uses a patience small enough that early stopping actually triggers
        for some slices, exercising the per-slice freeze bookkeeping.
        """
        x, targets = make_data(n=30)
        seeds = [31, 32, 33, 34]
        z_rows = [targets[0], targets[0], targets[1], targets[1]]

        serial = []
        for s, y in zip(seeds, z_rows):
            model = NeuralFeatureGP(3, seed=np.random.default_rng(s), **KW)
            model.fit(x, y, trainer=FeatureGPTrainer(epochs=80, patience=15))
            serial.append(model)

        batched = BatchedNeuralFeatureGP(
            3, n_stack=4, seed=[np.random.default_rng(s) for s in seeds], **KW
        )
        batched.fit(
            x,
            np.stack(z_rows),
            trainer=BatchedFeatureGPTrainer(epochs=80, patience=15),
        )

        x_query = np.random.default_rng(77).uniform(size=(11, 3))
        means_b, vars_b = batched.predict(x_query)
        for s, model in enumerate(serial):
            mean_s, var_s = model.predict(x_query)
            np.testing.assert_allclose(means_b[s], mean_s, atol=1e-8, rtol=0)
            np.testing.assert_allclose(vars_b[s], var_s, atol=1e-8, rtol=0)

    def test_shared_1d_targets_broadcast(self):
        x, targets = make_data()
        gp = BatchedNeuralFeatureGP(3, n_stack=3, seed=5, **KW)
        gp.fit(x, targets[0], trainer=BatchedFeatureGPTrainer(epochs=20))
        mean, var = gp.predict(x[:4])
        assert mean.shape == (3, 4)
        assert np.all(var > 0)

    def test_sample_slice_weights_shape(self):
        x, targets = make_data(n=8)
        gp = BatchedNeuralFeatureGP(3, n_stack=2, seed=0, **KW)
        gp.fit(x, targets, trainer=BatchedFeatureGPTrainer(epochs=60, lr=1e-2, patience=None))
        assert gp.sample_slice_weights(1, rng=0).shape == (gp.feature_dim,)
        with pytest.raises(IndexError):
            gp.sample_slice_weights(2)

    def test_sample_slice_weights_mean_matches_posterior(self):
        x, targets = make_data(n=20)
        gp = BatchedNeuralFeatureGP(3, n_stack=2, seed=0, **KW)
        gp.fit(x, targets, trainer=BatchedFeatureGPTrainer(epochs=60, lr=1e-2, patience=None))
        rng = np.random.default_rng(1)
        w = np.stack([gp.sample_slice_weights(1, rng=rng) for _ in range(4000)])
        np.testing.assert_allclose(w.mean(axis=0), gp._coef_r[1], atol=0.15)

    def test_loss_history_per_slice(self):
        x, targets = make_data()
        trainer = BatchedFeatureGPTrainer(epochs=15, patience=None)
        gp = BatchedNeuralFeatureGP(3, n_stack=2, seed=1, **KW)
        gp.fit(x, np.stack([targets[0], targets[1]]), trainer=trainer)
        assert len(trainer.loss_history) == 15
        assert trainer.loss_history[0].shape == (2,)


class TestSurrogateBank:
    def test_shapes_and_layout(self):
        x, targets = make_data()
        bank = SurrogateBank(
            3,
            n_targets=2,
            n_members=3,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=15),
            seed=0,
            **KW,
        )
        assert bank.n_stack == 6
        bank.fit(x, targets)
        x_query = x[:5]
        mu, var = bank.predict_target(0, x_query)
        assert mu.shape == (5,) and var.shape == (5,)
        assert np.all(var > 0)
        k_means, k_vars = bank.member_predictions(1, x_query)
        assert k_means.shape == (3, 5) and k_vars.shape == (3, 5)

    def test_target_ranges_are_bitwise_the_all_slice_pass(self):
        """One target, a contiguous range of targets, or one target's
        members: each runs only its own slices, and every row is bitwise
        what the all-slice pass gives (moment-matched by eq. 13)."""
        x, targets = make_data()
        four = np.vstack([targets, targets[0] ** 2 - 0.3, np.sin(5.0 * x[:, 2])])
        bank = SurrogateBank(
            3,
            n_targets=4,
            n_members=3,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=15),
            seed=2,
            **KW,
        )
        bank.fit(x, four)
        rng = np.random.default_rng(5)
        for n in (1, 144):
            x_query = rng.uniform(-0.2, 1.2, size=(n, 3))
            means, variances = bank.gp.predict(x_query)
            mean_tkn = means.reshape(4, 3, n)
            var_tkn = variances.reshape(4, 3, n)
            full_mu = mean_tkn.mean(axis=1)
            second_moment = (mean_tkn**2 + var_tkn).mean(axis=1)
            full_var = np.maximum(second_moment - full_mu**2, 1e-14)
            for lo in range(4):
                mu, var = bank.predict_target(lo, x_query)
                np.testing.assert_array_equal(mu, full_mu[lo])
                np.testing.assert_array_equal(var, full_var[lo])
                k_means, k_vars = bank.member_predictions(lo, x_query)
                np.testing.assert_array_equal(k_means, means[3 * lo : 3 * lo + 3])
                np.testing.assert_array_equal(k_vars, variances[3 * lo : 3 * lo + 3])
                for hi in range(lo + 1, 5):
                    mu, var = bank.predict_target(range(lo, hi), x_query)
                    np.testing.assert_array_equal(mu, full_mu[lo:hi])
                    np.testing.assert_array_equal(var, full_var[lo:hi])
        for bad in (range(1, 1), range(0, 4, 2), range(2, 5), 4):
            with pytest.raises(IndexError):
                bank.predict_target(bad, x)

    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateBank(3, n_targets=0, **KW)
        with pytest.raises(ValueError):
            SurrogateBank(3, n_targets=1, n_members=0, **KW)
        bank = SurrogateBank(3, n_targets=2, n_members=2, seed=0, **KW)
        x, targets = make_data()
        with pytest.raises(ValueError):
            bank.fit(x, targets[0])  # 1-D targets
        with pytest.raises(IndexError):
            bank.predict_target(2, x)
        with pytest.raises(IndexError):
            bank.predict_target(-1, x)

    def test_combine_matches_deep_ensemble_formula(self):
        """Bank moment matching == DeepEnsemble.predict on the same members."""
        x, targets = make_data()
        bank = SurrogateBank(
            3, n_targets=2, n_members=3,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=15),
            seed=4, **KW,
        )
        bank.fit(x, targets)
        x_query = x[:6]
        for t in range(2):
            k_means, k_vars = bank.member_predictions(t, x_query)

            class _Fixed:
                def __init__(self, mean, var):
                    self._mean, self._var = mean, var

                def predict(self, _):
                    return self._mean, self._var

            ensemble = DeepEnsemble(
                [_Fixed(k_means[k], k_vars[k]) for k in range(3)]
            )
            mu_ref, var_ref = ensemble.predict(x_query)
            mu, var = bank.predict_target(t, x_query)
            np.testing.assert_array_equal(mu, mu_ref)
            np.testing.assert_array_equal(var, var_ref)

    def test_fantasize_diversifies_and_clears_exactly(self):
        """Fantasy conditioning shrinks variance at the pending point (the
        q-point diversity mechanism) and clears back to the real posterior
        bitwise."""
        x, targets = make_data()
        bank = SurrogateBank(
            3, n_targets=2, n_members=2,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=15),
            seed=0, **KW,
        )
        bank.fit(x, targets)
        pending = np.array([0.4, 0.6, 0.5])
        x_query = np.vstack([pending, np.random.default_rng(3).uniform(size=(5, 3))])
        before = [bank.predict_target(t, x_query) for t in range(2)]

        bank.fantasize(pending, np.array([0.0, 1.0]))
        assert bank.n_fantasies == 1
        after_var = bank.predict_target(0, x_query)[1]
        assert after_var[0] < before[0][1][0]  # pending point looks "observed"

        bank.clear_fantasies()
        assert bank.n_fantasies == 0
        for t in range(2):
            mu, var = bank.predict_target(t, x_query)
            np.testing.assert_array_equal(mu, before[t][0])
            np.testing.assert_array_equal(var, before[t][1])

    def test_fantasize_validation(self):
        x, targets = make_data()
        bank = SurrogateBank(
            3, n_targets=2, n_members=2,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=10),
            seed=0, **KW,
        )
        with pytest.raises(RuntimeError):
            bank.fantasize(np.zeros(3), np.zeros(2))  # not fitted
        bank.fit(x, targets)
        with pytest.raises(ValueError):
            bank.fantasize(np.zeros(3), np.zeros(3))  # wrong target count

    def test_observe_matches_fantasize_but_is_permanent(self):
        """observe() does the same posterior math as fantasize() — the async
        loop's per-landing absorb — but the point survives clear_fantasies."""
        x, targets = make_data()

        def make_bank():
            bank = SurrogateBank(
                3, n_targets=2, n_members=2,
                trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=15),
                seed=0, **KW,
            )
            return bank.fit(x, targets)

        landing = np.array([0.3, 0.7, 0.4])
        values = np.array([0.2, -0.5])
        x_query = np.random.default_rng(9).uniform(size=(6, 3))

        fantasized = make_bank()
        fantasized.fantasize(landing, values)
        reference = [fantasized.predict_target(t, x_query) for t in range(2)]

        observed = make_bank()
        observed.observe(landing, values)
        for t in range(2):
            mu, var = observed.predict_target(t, x_query)
            np.testing.assert_array_equal(mu, reference[t][0])
            np.testing.assert_array_equal(var, reference[t][1])

        # permanence: clearing fantasies does not drop observed data
        observed.clear_fantasies()
        for t in range(2):
            mu, _ = observed.predict_target(t, x_query)
            np.testing.assert_array_equal(mu, reference[t][0])
        assert observed.gp.num_train == x.shape[0] + 1

    def test_observe_validation(self):
        bank = SurrogateBank(
            3, n_targets=2, n_members=2,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=10),
            seed=0, **KW,
        )
        with pytest.raises(RuntimeError):
            bank.observe(np.zeros(3), np.zeros(2))  # not fitted
        x, targets = make_data()
        bank.fit(x, targets)
        with pytest.raises(ValueError):
            bank.observe(np.zeros(3), np.zeros(3))  # wrong target count

    def test_refit_is_warm_started(self):
        """fit() on a live bank trains from the current weights (warm start):
        with a zero-epoch trainer the network parameters carry over bitwise,
        while a fresh bank re-draws them."""
        x, targets = make_data()
        bank = SurrogateBank(
            3, n_targets=2, n_members=2,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=15),
            seed=0, **KW,
        )
        bank.fit(x, targets)
        params_before = bank.gp.network.get_stacked_params().copy()

        def frozen_trainer():
            return BatchedFeatureGPTrainer(epochs=0)

        x2 = np.vstack([x, np.array([[0.15, 0.85, 0.55]])])
        targets2 = np.concatenate([targets, np.array([[0.1], [0.2]])], axis=1)
        bank._trainer_factory = frozen_trainer
        bank.fit(x2, targets2)
        np.testing.assert_array_equal(
            bank.gp.network.get_stacked_params(), params_before
        )
        assert bank.gp.num_train == x2.shape[0]

    def test_sampled_target_functions_deterministic(self):
        """Same rng seed => the same Thompson draw; distinct draws differ."""
        x, targets = make_data()
        bank = SurrogateBank(
            3, n_targets=2, n_members=2,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=15),
            seed=0, **KW,
        )
        bank.fit(x, targets)
        x_query = np.random.default_rng(5).uniform(size=(6, 3))
        f1 = BankThompsonAcquisition(bank, rng=np.random.default_rng(99))
        f2 = BankThompsonAcquisition(bank, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(f1(x_query), f2(x_query))
        g = BankThompsonAcquisition(bank, rng=np.random.default_rng(100))
        assert not np.array_equal(f1(x_query), g(x_query))

    def test_matches_serial_reference_bank(self):
        """End-to-end: bank == per-member loop with the same seed stream."""
        x, targets = make_data(n=26)
        seed = 99
        bank = SurrogateBank(
            3, n_targets=2, n_members=2,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=60),
            seed=np.random.default_rng(seed), **KW,
        )
        bank.fit(x, targets)
        reference = serial_reference_bank(
            3, n_targets=2, n_members=2,
            member_kwargs=KW, seed=np.random.default_rng(seed),
        )
        x_query = np.random.default_rng(8).uniform(size=(7, 3))
        for t in range(2):
            means_b, vars_b = bank.member_predictions(t, x_query)
            for k, model in enumerate(reference[t]):
                model.fit(x, targets[t], trainer=FeatureGPTrainer(epochs=60))
                mean_s, var_s = model.predict(x_query)
                np.testing.assert_allclose(means_b[k], mean_s, atol=1e-8, rtol=0)
                np.testing.assert_allclose(vars_b[k], var_s, atol=1e-8, rtol=0)


class TestActiveSliceCompaction:
    """Compaction must be a pure wall-clock optimization: gathering the
    still-active slices changes no arithmetic, so each slice trains
    bitwise as a per-member fit of the same model does."""

    SEEDS = (31, 32, 33, 34)
    # a deliberately unstable learning rate makes slices stall at
    # different epochs, so the active set actually shrinks
    SETTINGS = dict(epochs=200, patience=8, lr=0.2)

    def _data(self):
        x, targets = make_data(n=30)
        return x, np.stack([targets[0], targets[1], targets[0] * 2.0, targets[1] - 1.0])

    def _fit(self):
        x, z = self._data()
        gp = BatchedNeuralFeatureGP(
            3, n_stack=4, seed=[np.random.default_rng(s) for s in self.SEEDS], **KW
        )
        trainer = BatchedFeatureGPTrainer(**self.SETTINGS)
        gp.fit(x, z, trainer=trainer)
        return gp, trainer

    def test_bitwise_equivalence_with_freezing(self):
        gp, trainer = self._fit()
        # the scenario must exercise compaction, else this test is vacuous
        assert any(np.isnan(loss).any() for loss in trainer.loss_history)
        x, z = self._data()
        x_query = np.random.default_rng(12).uniform(size=(9, 3))
        means, variances = gp.predict(x_query)
        params = gp.network.get_stacked_params()
        for s, seed in enumerate(self.SEEDS):
            member = NeuralFeatureGP(3, seed=np.random.default_rng(seed), **KW)
            member.fit(x, z[s], trainer=FeatureGPTrainer(**self.SETTINGS))
            np.testing.assert_array_equal(params[s], member.network.get_flat_params())
            assert gp.log_noise_variance[s] == member.log_noise_variance
            assert gp.log_prior_variance[s] == member.log_prior_variance
            mean, var = member.predict(x_query)
            np.testing.assert_array_equal(means[s], mean)
            np.testing.assert_allclose(variances[s], var, atol=1e-12, rtol=0)

    def test_frozen_slices_marked_nan_in_loss_history(self):
        _, trainer = self._fit()
        nan_counts = [int(np.isnan(loss).sum()) for loss in trainer.loss_history]
        assert nan_counts[0] == 0  # everything active at the start
        assert nan_counts == sorted(nan_counts)  # frozen slices never revive

    def test_gather_slices_matches_parent(self):
        x, targets = make_data()
        gp = BatchedNeuralFeatureGP(3, n_stack=3, seed=7, **KW)
        sub = gp.gather_slices(np.array([2, 0]))
        feats_full = gp.features(x)
        feats_sub = sub.features(x)
        np.testing.assert_array_equal(feats_sub[0], feats_full[2])
        np.testing.assert_array_equal(feats_sub[1], feats_full[0])
        with pytest.raises(IndexError):
            gp.gather_slices(np.array([3]))
        with pytest.raises(ValueError):
            gp.gather_slices(np.array([], dtype=int))
