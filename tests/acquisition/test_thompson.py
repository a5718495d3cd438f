"""Tests for the Thompson-sampling extension (weight-space posterior draws)."""

import numpy as np
import pytest

from repro.acquisition.thompson import (
    SampledFunction,
    ThompsonSamplingAcquisition,
)
from repro.benchfns import toy_constrained_quadratic
from repro.core import DeepEnsemble, NeuralFeatureGP


@pytest.fixture()
def fitted_model(rng, fast_trainer):
    model = NeuralFeatureGP(2, hidden_dims=(12, 12), n_features=8, seed=0)
    x = rng.uniform(size=(20, 2))
    y = np.sin(4 * x[:, 0]) + x[:, 1]
    model.fit(x, y, trainer=fast_trainer)
    return model, x, y


class TestSampledFunction:
    def test_deterministic_after_draw(self, fitted_model):
        model, x, _ = fitted_model
        sample = SampledFunction(model, rng=0)
        a = sample(x[:5])
        b = sample(x[:5])
        np.testing.assert_array_equal(a, b)

    def test_different_draws_differ(self, fitted_model):
        model, _, _ = fitted_model
        x_far = np.array([[0.95, 0.95]])
        values = [SampledFunction(model, rng=k)(x_far)[0] for k in range(8)]
        assert np.std(values) > 0.0

    def test_mean_of_draws_approaches_posterior_mean(self, fitted_model):
        """Monte-Carlo check of exactness: averaging many sampled functions
        recovers the analytic posterior mean."""
        model, x, _ = fitted_model
        x_test = x[:6]
        draws = np.stack(
            [SampledFunction(model, rng=k)(x_test) for k in range(600)]
        )
        mean, var = model.predict(x_test)
        np.testing.assert_allclose(
            draws.mean(axis=0), mean, atol=4 * np.sqrt(var.max() / 600) + 0.05
        )

    def test_variance_of_draws_approaches_posterior_variance(self, fitted_model):
        model, x, _ = fitted_model
        x_test = x[:4]
        draws = np.stack(
            [SampledFunction(model, rng=k)(x_test) for k in range(800)]
        )
        _, var = model.predict(x_test)
        np.testing.assert_allclose(draws.var(axis=0), var, rtol=0.35, atol=1e-6)

    def test_rejects_non_weight_space_models(self):
        from repro.gp import GPRegression

        with pytest.raises(TypeError):
            SampledFunction(GPRegression())


class TestThompsonAcquisition:
    def test_unconstrained_is_negated_sample(self, fitted_model):
        model, x, _ = fitted_model
        acq = ThompsonSamplingAcquisition(model, rng=3)
        values = acq(x[:5])
        direct = acq.objective_sample(x[:5])
        np.testing.assert_allclose(values, -direct)

    def test_infeasible_always_worse(self, fitted_model, rng, fast_trainer):
        model, x, y = fitted_model
        constraint = NeuralFeatureGP(2, hidden_dims=(12, 12), n_features=8, seed=1)
        # constraint: g = x0 - 0.5 (feasible left half), learned from data
        g = x[:, 0] - 0.5
        constraint.fit(x, g, trainer=fast_trainer)
        acq = ThompsonSamplingAcquisition(model, [constraint], rng=0)
        feasible_pt = np.array([[0.1, 0.5]])
        infeasible_pt = np.array([[0.95, 0.5]])
        assert acq(feasible_pt)[0] > acq(infeasible_pt)[0]

    def test_ensemble_member_selection(self, rng, fast_trainer):
        ensemble = DeepEnsemble.create(
            lambda r: NeuralFeatureGP(2, hidden_dims=(10, 10), n_features=6, seed=r),
            n_members=3,
            seed=0,
        )
        x = rng.uniform(size=(15, 2))
        y = x.sum(axis=1)
        for member in ensemble.members:
            member.fit(x, y, trainer=fast_trainer)
        acq = ThompsonSamplingAcquisition(ensemble, rng=1)
        assert np.all(np.isfinite(acq(x[:4])))


class TestThompsonNNBO:
    def test_nnbo_with_thompson_acquisition(self):
        """Algorithm 1 with TS instead of wEI still solves the toy problem."""
        from repro.bo.config import AcquisitionConfig, SurrogateConfig
        from repro.core import NNBO

        problem = toy_constrained_quadratic(2)
        result = NNBO(
            problem,
            n_initial=8,
            max_evaluations=22,
            surrogate=SurrogateConfig(
                n_ensemble=2, hidden_dims=(12, 12), n_features=8, epochs=60
            ),
            acquisition_config=AcquisitionConfig(acquisition="thompson"),
            seed=2,
        ).run()
        assert result.n_evaluations == 22
        assert result.success
        assert result.best_objective() < 1.0

    def test_invalid_acquisition_name(self):
        from repro.bo.config import AcquisitionConfig
        from repro.core import NNBO

        with pytest.raises(ValueError):
            NNBO(
                toy_constrained_quadratic(2),
                acquisition_config=AcquisitionConfig(acquisition="ucb"),
            )
