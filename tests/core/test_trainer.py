"""Tests for the likelihood trainer (Sec. III-B)."""

import numpy as np
import pytest

from per_member_engine import FeatureGPTrainer, NeuralFeatureGP
from repro.core import BatchedFeatureGPTrainer, BatchedNeuralFeatureGP


def smooth_data(rng, n=25):
    x = rng.uniform(size=(n, 2))
    y = np.sin(4 * x[:, 0]) * np.cos(2 * x[:, 1])
    return x, y


class TestTraining:
    def test_nll_decreases(self, rng, tiny_nngp):
        model = tiny_nngp(seed=0)
        x, y = smooth_data(rng)
        trainer = FeatureGPTrainer(epochs=120, patience=None)
        model.fit(x, y, trainer=trainer)
        history = trainer.loss_history
        assert len(history) == 120
        assert min(history[-20:]) < history[0]

    def test_best_params_restored(self, rng, tiny_nngp):
        """Final model must realize the best NLL seen, not the last iterate."""
        model = tiny_nngp(seed=1)
        x, y = smooth_data(rng)
        trainer = FeatureGPTrainer(epochs=100, patience=None)
        best = trainer.train(model, x, model._y_scaler.fit_transform(y))
        model._x_train = x
        model._z_train = model._y_scaler.transform(y)
        feats = model.features(x)
        final = model.marginal_nll(feats, model._z_train)
        assert final == pytest.approx(best, rel=1e-6)

    def test_early_stopping_truncates(self, rng, tiny_nngp):
        model = tiny_nngp(seed=2)
        x, y = smooth_data(rng, n=10)
        trainer = FeatureGPTrainer(epochs=5000, patience=10)
        model.fit(x, y, trainer=trainer)
        assert len(trainer.loss_history) < 5000

    def test_pretrain_then_nll(self, rng, tiny_nngp):
        model = tiny_nngp(seed=3)
        x, y = smooth_data(rng)
        trainer = FeatureGPTrainer(epochs=60, pretrain_epochs=60, seed=0)
        model.fit(x, y, trainer=trainer)
        mean, _ = model.predict(x)
        assert np.corrcoef(mean, y)[0, 1] > 0.7

    def test_batched_pretrain_then_nll(self, rng):
        """The stacked trainer's MSE warm start, then NLL, on every slice."""
        x, y = smooth_data(rng)
        model = BatchedNeuralFeatureGP(2, n_stack=2, hidden_dims=(12, 12), n_features=8, seed=3)
        trainer = BatchedFeatureGPTrainer(epochs=60, pretrain_epochs=60)
        model.fit(x, y, trainer=trainer)
        means, _ = model.predict(x)
        for mean in means:
            assert np.corrcoef(mean, y)[0, 1] > 0.7

    def test_zero_epochs_returns_current_nll(self, rng, tiny_nngp):
        model = tiny_nngp(seed=4)
        x, y = smooth_data(rng, n=8)
        trainer = FeatureGPTrainer(epochs=0)
        nll = trainer.train(model, x, y)
        assert np.isfinite(nll)

    def test_hyperparams_stay_in_bounds(self, rng, tiny_nngp):
        from repro.core.trainer import LOG_NOISE_BOUNDS, LOG_PRIOR_BOUNDS

        model = tiny_nngp(seed=5)
        x, y = smooth_data(rng)
        model.fit(x, y, trainer=FeatureGPTrainer(epochs=150, lr=5e-2))
        assert LOG_NOISE_BOUNDS[0] <= model.log_noise_variance <= LOG_NOISE_BOUNDS[1]
        assert LOG_PRIOR_BOUNDS[0] <= model.log_prior_variance <= LOG_PRIOR_BOUNDS[1]

    def test_rejects_negative_epochs(self):
        with pytest.raises(ValueError):
            FeatureGPTrainer(epochs=-1)

    def test_training_improves_prediction_over_untrained(self, rng):
        x, y = smooth_data(rng, n=30)
        xt = rng.uniform(size=(100, 2))
        yt = np.sin(4 * xt[:, 0]) * np.cos(2 * xt[:, 1])

        def rmse(model):
            mean, _ = model.predict(xt)
            return np.sqrt(np.mean((mean - yt) ** 2))

        untrained = NeuralFeatureGP(2, hidden_dims=(16, 16), n_features=12, seed=0)
        untrained.fit(x, y, trainer=FeatureGPTrainer(epochs=0))
        trained = NeuralFeatureGP(2, hidden_dims=(16, 16), n_features=12, seed=0)
        trained.fit(x, y, trainer=FeatureGPTrainer(epochs=300))
        assert rmse(trained) < rmse(untrained)
