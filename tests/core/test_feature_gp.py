"""Tests for the NN-feature GP: posterior math of eq. 10 and the API."""

import numpy as np
import pytest

from per_member_engine import FeatureGPTrainer, NeuralFeatureGP


class TestPosteriorMath:
    def test_matches_bayesian_linear_regression(self, rng):
        """Eq. 10 must equal textbook Bayesian linear regression on the
        same (fixed) features — computed here via the N x N kernel-space
        formulas, which are algebraically identical but independently coded.
        """
        model = NeuralFeatureGP(
            2, hidden_dims=(8,), n_features=5, add_bias_feature=False,
            normalize_y=False, noise_variance=0.05, prior_variance=2.0, seed=0,
        )
        n = 9
        x = rng.uniform(size=(n, 2))
        y = rng.normal(size=n)
        model._x_train = x
        model._z_train = y.copy()
        model._y_scaler.fit(np.array([0.0, 1.0]))
        model._y_scaler.mean_, model._y_scaler.scale_ = 0.0, 1.0
        model.update_posterior()

        feats = model.features(x)  # (n, M) fixed features
        x_new = rng.uniform(size=(4, 2))
        feats_new = model.features(x_new)
        m_dim = model.feature_dim
        sigma_p = model.prior_variance / m_dim  # w ~ N(0, sigma_p^2/M I)
        # kernel-space GP with k(x1,x2) = phi1^T Sigma_p phi2 (eq. 9)
        k_train = sigma_p * feats @ feats.T
        k_cross = sigma_p * feats_new @ feats.T
        k_diag = sigma_p * np.sum(feats_new**2, axis=1)
        gram = k_train + model.noise_variance * np.eye(n)
        alpha = np.linalg.solve(gram, y)
        expected_mean = k_cross @ alpha
        expected_var = k_diag - np.sum(k_cross * np.linalg.solve(gram, k_cross.T).T, axis=1)

        mean, var = model.predict(x_new)
        np.testing.assert_allclose(mean, expected_mean, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(var, expected_var, rtol=1e-4, atol=1e-8)

    def test_nll_matches_kernel_space_formula(self, rng):
        """Eq. 11 must equal the standard GP likelihood (eq. 4) with the
        induced kernel — the matrix-inversion-lemma identity."""
        model = NeuralFeatureGP(
            2, hidden_dims=(6,), n_features=4, add_bias_feature=False,
            normalize_y=False, noise_variance=0.1, prior_variance=1.5, seed=1,
        )
        n = 7
        x = rng.uniform(size=(n, 2))
        z = rng.normal(size=n)
        feats = model.features(x)
        nll = model.marginal_nll(feats, z)
        sigma_p = model.prior_variance / model.feature_dim
        gram = sigma_p * feats @ feats.T + model.noise_variance * np.eye(n)
        sign, logdet = np.linalg.slogdet(gram)
        expected = 0.5 * (
            z @ np.linalg.solve(gram, z) + logdet + n * np.log(2 * np.pi)
        )
        assert nll == pytest.approx(expected, rel=1e-8)

    def test_prediction_includes_noise_option(self, rng, tiny_nngp, fast_trainer):
        model = tiny_nngp()
        x = rng.uniform(size=(10, 2))
        y = np.sin(x[:, 0] * 3)
        model.fit(x, y, trainer=fast_trainer)
        _, var_f = model.predict(x[:3], include_noise=False)
        _, var_y = model.predict(x[:3], include_noise=True)
        assert np.all(var_y > var_f)


class TestFitAndPredict:
    def test_fit_learns_smooth_function(self, rng):
        model = NeuralFeatureGP(1, hidden_dims=(24, 24), n_features=16, seed=0)
        x = rng.uniform(size=(30, 1))
        y = np.sin(5 * x[:, 0])
        model.fit(x, y, trainer=FeatureGPTrainer(epochs=300))
        xt = np.linspace(0.05, 0.95, 40).reshape(-1, 1)
        mean, _ = model.predict(xt)
        rmse = np.sqrt(np.mean((mean - np.sin(5 * xt[:, 0])) ** 2))
        assert rmse < 0.25

    def test_uncertainty_larger_off_data(self, rng, tiny_nngp, fast_trainer):
        model = tiny_nngp(input_dim=1)
        x = rng.uniform(0.0, 0.4, size=(15, 1))
        y = np.sin(5 * x[:, 0])
        model.fit(x, y, trainer=fast_trainer)
        _, var_in = model.predict(np.array([[0.2]]))
        _, var_out = model.predict(np.array([[0.95]]))
        assert var_out[0] > var_in[0]

    def test_y_normalization_handles_db_scale(self, rng, tiny_nngp, fast_trainer):
        model = tiny_nngp()
        x = rng.uniform(size=(12, 2))
        y = 85.0 + 3.0 * np.sin(4 * x[:, 0])
        model.fit(x, y, trainer=fast_trainer)
        mean, _ = model.predict(x)
        assert abs(np.mean(mean) - 85.0) < 3.0

    def test_feature_dim_includes_bias(self):
        with_bias = NeuralFeatureGP(2, n_features=10, add_bias_feature=True)
        without = NeuralFeatureGP(2, n_features=10, add_bias_feature=False)
        assert with_bias.feature_dim == 11
        assert without.feature_dim == 10

    def test_features_shape_and_bias_column(self, rng):
        model = NeuralFeatureGP(3, hidden_dims=(6,), n_features=4, seed=0)
        feats = model.features(rng.uniform(size=(5, 3)))
        assert feats.shape == (5, 5)
        np.testing.assert_allclose(feats[:, -1], 1.0)

    def test_sample_head_weights_shape(self, rng, tiny_nngp, fast_trainer):
        model = tiny_nngp()
        x = rng.uniform(size=(8, 2))
        model.fit(x, rng.normal(size=8), trainer=fast_trainer)
        w = model.sample_head_weights(6, rng=0)
        assert w.shape == (6, model.feature_dim)

    def test_sample_head_weights_mean_matches_posterior(self, rng, tiny_nngp, fast_trainer):
        model = tiny_nngp()
        x = rng.uniform(size=(20, 2))
        model.fit(x, rng.normal(size=20), trainer=fast_trainer)
        w = model.sample_head_weights(4000, rng=1)
        np.testing.assert_allclose(w.mean(axis=0), model._coef_r, atol=0.15)


class TestValidation:
    def test_predict_before_fit(self, tiny_nngp):
        with pytest.raises(RuntimeError):
            tiny_nngp().predict(np.zeros((1, 2)))

    def test_too_few_points(self, tiny_nngp):
        with pytest.raises(ValueError):
            tiny_nngp().fit(np.zeros((1, 2)), np.zeros(1))

    def test_nan_rejected(self, tiny_nngp):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            tiny_nngp().fit(x, np.array([1.0, np.nan, 2.0]))

    def test_bad_hyperparams(self):
        with pytest.raises(ValueError):
            NeuralFeatureGP(2, noise_variance=-1.0)

    def test_wrong_feature_count_in_nll(self, rng, tiny_nngp):
        model = tiny_nngp()
        with pytest.raises(ValueError):
            model.marginal_nll(rng.normal(size=(5, 3)), rng.normal(size=5))

    def test_repr(self, tiny_nngp):
        assert "NeuralFeatureGP" in repr(tiny_nngp())
