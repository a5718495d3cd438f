"""Finite-difference verification of the eq. 11 gradient derivation.

These are the load-bearing tests of the whole training procedure: if any
of dNLL/dPhi, dNLL/dlog sigma_n^2 or dNLL/dlog sigma_p^2 were wrong, the
surrogate would silently train to garbage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from per_member_engine import NeuralFeatureGP

EPS = 1e-6


def make_model(n_features=6, noise=0.05, prior=1.3, seed=0, bias=False):
    return NeuralFeatureGP(
        3,
        hidden_dims=(8, 8),
        n_features=n_features,
        add_bias_feature=bias,
        noise_variance=noise,
        prior_variance=prior,
        seed=seed,
    )


class TestFeatureGradient:
    def test_full_dfeats_matrix(self, rng):
        model = make_model()
        n = 10
        feats = rng.normal(size=(n, model.feature_dim))
        z = rng.normal(size=n)
        _, dfeats, _, _ = model.marginal_nll(feats, z, with_grads=True)
        numeric = np.zeros_like(feats)
        for i in range(n):
            for j in range(model.feature_dim):
                fp = feats.copy()
                fp[i, j] += EPS
                fm = feats.copy()
                fm[i, j] -= EPS
                numeric[i, j] = (
                    model.marginal_nll(fp, z) - model.marginal_nll(fm, z)
                ) / (2 * EPS)
        np.testing.assert_allclose(dfeats, numeric, rtol=1e-4, atol=1e-6)

    @given(
        n=st.integers(3, 15),
        m=st.integers(2, 10),
        noise=st.floats(1e-3, 1.0),
        prior=st.floats(0.1, 10.0),
    )
    @settings(max_examples=15)
    def test_property_random_shapes_and_scales(self, n, m, noise, prior):
        rng = np.random.default_rng(n * 100 + m)
        model = NeuralFeatureGP(
            2, hidden_dims=(4,), n_features=m, add_bias_feature=False,
            noise_variance=noise, prior_variance=prior, seed=0,
        )
        feats = rng.normal(size=(n, m))
        z = rng.normal(size=n)
        _, dfeats, _, _ = model.marginal_nll(feats, z, with_grads=True)
        # spot-check two random entries
        for _ in range(2):
            i = int(rng.integers(n))
            j = int(rng.integers(m))
            fp = feats.copy()
            fp[i, j] += EPS
            fm = feats.copy()
            fm[i, j] -= EPS
            numeric = (model.marginal_nll(fp, z) - model.marginal_nll(fm, z)) / (2 * EPS)
            assert dfeats[i, j] == pytest.approx(numeric, rel=5e-3, abs=1e-5)


class TestScaleGradients:
    @pytest.mark.parametrize("noise,prior", [(0.01, 1.0), (0.5, 0.2), (1e-3, 5.0)])
    def test_log_noise_gradient(self, rng, noise, prior):
        model = make_model(noise=noise, prior=prior)
        feats = rng.normal(size=(12, model.feature_dim))
        z = rng.normal(size=12)
        _, _, d_noise, _ = model.marginal_nll(feats, z, with_grads=True)
        s0 = model.log_noise_variance
        model.log_noise_variance = s0 + EPS
        up = model.marginal_nll(feats, z)
        model.log_noise_variance = s0 - EPS
        down = model.marginal_nll(feats, z)
        model.log_noise_variance = s0
        assert d_noise == pytest.approx((up - down) / (2 * EPS), rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("noise,prior", [(0.01, 1.0), (0.5, 0.2), (1e-3, 5.0)])
    def test_log_prior_gradient(self, rng, noise, prior):
        model = make_model(noise=noise, prior=prior)
        feats = rng.normal(size=(12, model.feature_dim))
        z = rng.normal(size=12)
        _, _, _, d_prior = model.marginal_nll(feats, z, with_grads=True)
        p0 = model.log_prior_variance
        model.log_prior_variance = p0 + EPS
        up = model.marginal_nll(feats, z)
        model.log_prior_variance = p0 - EPS
        down = model.marginal_nll(feats, z)
        model.log_prior_variance = p0
        assert d_prior == pytest.approx((up - down) / (2 * EPS), rel=1e-4, abs=1e-6)


class TestEndToEndNetworkGradient:
    def test_backprop_through_network_matches_numerical(self, rng):
        """The chain eq. 12: dNLL/deta via network backward must equal the
        numerical derivative of NLL(features(eta))."""
        model = make_model(n_features=4, bias=True, seed=3)
        x = rng.uniform(size=(8, 3))
        z = rng.normal(size=8)

        def nll_of_params(flat):
            model.network.set_flat_params(flat)
            return model.marginal_nll(model.features(x), z)

        feats = model.features(x)
        _, dfeats, _, _ = model.marginal_nll(feats, z, with_grads=True)
        analytic = model.backprop_feature_grad(dfeats)
        flat = model.network.get_flat_params()
        idx = rng.choice(flat.size, size=12, replace=False)
        for i in idx:
            p = flat.copy()
            p[i] += EPS
            up = nll_of_params(p)
            p[i] -= 2 * EPS
            down = nll_of_params(p)
            numeric = (up - down) / (2 * EPS)
            assert analytic[i] == pytest.approx(numeric, rel=1e-3, abs=1e-6)
        model.network.set_flat_params(flat)
