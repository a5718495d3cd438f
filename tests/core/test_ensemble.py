"""Tests for the deep ensemble (paper eq. 13)."""

import numpy as np
import pytest

from per_member_engine import DeepEnsemble


class FakeModel:
    """Deterministic stub with controllable predictions."""

    def __init__(self, mean, var):
        self._mean = np.asarray(mean, dtype=float)
        self._var = np.asarray(var, dtype=float)
        self.fitted_with = None

    def fit(self, x, y, **kwargs):
        self.fitted_with = (x, y, kwargs)
        return self

    def predict(self, x, **kwargs):
        n = np.atleast_2d(x).shape[0]
        return np.resize(self._mean, n), np.resize(self._var, n)


class TestMomentMatching:
    def test_eq13_exact(self):
        """mu = mean of means; sigma^2 = mean(mu_k^2 + var_k) - mu^2."""
        members = [FakeModel(1.0, 0.1), FakeModel(3.0, 0.3), FakeModel(2.0, 0.2)]
        ensemble = DeepEnsemble(members)
        mean, var = ensemble.predict(np.zeros((1, 2)))
        mu_k = np.array([1.0, 3.0, 2.0])
        var_k = np.array([0.1, 0.3, 0.2])
        expected_mu = mu_k.mean()
        expected_var = np.mean(mu_k**2 + var_k) - expected_mu**2
        assert mean[0] == pytest.approx(expected_mu)
        assert var[0] == pytest.approx(expected_var)

    def test_single_member_is_identity(self):
        ensemble = DeepEnsemble([FakeModel(1.5, 0.4)])
        mean, var = ensemble.predict(np.zeros((3, 1)))
        np.testing.assert_allclose(mean, 1.5)
        np.testing.assert_allclose(var, 0.4)

    def test_disagreement_inflates_variance(self):
        agree = DeepEnsemble([FakeModel(2.0, 0.1), FakeModel(2.0, 0.1)])
        disagree = DeepEnsemble([FakeModel(0.0, 0.1), FakeModel(4.0, 0.1)])
        _, var_a = agree.predict(np.zeros((1, 1)))
        _, var_d = disagree.predict(np.zeros((1, 1)))
        assert var_d[0] > var_a[0]
        assert var_a[0] == pytest.approx(0.1)

    def test_variance_never_negative(self):
        ensemble = DeepEnsemble([FakeModel(0.0, 0.0), FakeModel(0.0, 0.0)])
        _, var = ensemble.predict(np.zeros((2, 1)))
        assert np.all(var >= 0.0)

    def test_member_predictions_shape(self):
        ensemble = DeepEnsemble([FakeModel(1.0, 0.1), FakeModel(2.0, 0.2)])
        means, variances = ensemble.member_predictions(np.zeros((4, 1)))
        assert means.shape == (2, 4)
        assert variances.shape == (2, 4)


class TestCreateAndFit:
    def test_create_spawns_independent_members(self):
        from per_member_engine import NeuralFeatureGP

        ensemble = DeepEnsemble.create(
            lambda rng: NeuralFeatureGP(2, hidden_dims=(6,), n_features=4, seed=rng),
            n_members=3,
            seed=0,
        )
        params = [m.network.get_flat_params() for m in ensemble.members]
        assert not np.allclose(params[0], params[1])
        assert not np.allclose(params[1], params[2])

    def test_create_reproducible(self):
        from per_member_engine import NeuralFeatureGP

        def factory(rng):
            return NeuralFeatureGP(2, hidden_dims=(6,), n_features=4, seed=rng)

        a = DeepEnsemble.create(factory, 2, seed=9)
        b = DeepEnsemble.create(factory, 2, seed=9)
        np.testing.assert_array_equal(
            a.members[0].network.get_flat_params(),
            b.members[0].network.get_flat_params(),
        )

    def test_fit_forwards_kwargs(self):
        members = [FakeModel(0.0, 1.0)]
        ensemble = DeepEnsemble(members)
        ensemble.fit(np.zeros((2, 1)), np.zeros(2), trainer="sentinel")
        assert members[0].fitted_with[2] == {"trainer": "sentinel"}

    def test_paper_default_is_five(self):
        """Sec. III-C: 'The number of the ensemble members ... set to be 5'."""
        from per_member_engine import NeuralFeatureGP

        ensemble = DeepEnsemble.create(
            lambda rng: NeuralFeatureGP(2, hidden_dims=(4,), n_features=3, seed=rng),
            seed=0,
        )
        assert ensemble.n_members == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DeepEnsemble([])

    def test_rejects_zero_members(self):
        with pytest.raises(ValueError):
            DeepEnsemble.create(lambda rng: FakeModel(0, 1), n_members=0)


class TestEnsembleOnRealModels:
    def test_uncertainty_improves_far_from_data(self, rng, fast_trainer):
        """Lakshminarayanan-style: ensemble variance off-data should exceed
        a single member's, thanks to the disagreement term."""
        from per_member_engine import NeuralFeatureGP

        x = rng.uniform(0.0, 0.3, size=(15, 1))
        y = np.sin(8 * x[:, 0])
        ensemble = DeepEnsemble.create(
            lambda r: NeuralFeatureGP(1, hidden_dims=(12, 12), n_features=8, seed=r),
            n_members=4,
            seed=2,
        )
        for member in ensemble.members:
            member.fit(x, y, trainer=fast_trainer)
        x_far = np.array([[0.95]])
        _, var_ens = ensemble.predict(x_far)
        member_vars = [m.predict(x_far)[1][0] for m in ensemble.members]
        assert var_ens[0] >= np.mean(member_vars)
