"""Tests for the Thompson-sampling extension (weight-space posterior draws)."""

import numpy as np
import pytest

from repro.acquisition.thompson import BankThompsonAcquisition
from repro.benchfns import toy_constrained_quadratic
from repro.core import BatchedFeatureGPTrainer, SurrogateBank


def fit_bank(x, targets, n_members=1, hidden_dims=(12, 12), n_features=8, seed=0):
    bank = SurrogateBank(
        x.shape[1],
        n_targets=len(targets),
        n_members=n_members,
        hidden_dims=hidden_dims,
        n_features=n_features,
        trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=60, lr=1e-2, patience=None),
        seed=seed,
    )
    return bank.fit(x, np.stack(targets))


@pytest.fixture()
def fitted_bank(rng):
    """One target, one member: a Thompson draw is that model's sample."""
    x = rng.uniform(size=(20, 2))
    y = np.sin(4 * x[:, 0]) + x[:, 1]
    return fit_bank(x, [y]), x, y


def sampled(bank, rng):
    """One draw's sampled objective ``f_s(x)`` (unconstrained: ``-acq``)."""
    acq = BankThompsonAcquisition(bank, rng=rng)
    return lambda x: -acq(x)


class TestSampledFunction:
    """A Thompson draw is one exact posterior function of a bank slice."""

    def test_deterministic_after_draw(self, fitted_bank):
        bank, x, _ = fitted_bank
        sample = sampled(bank, rng=0)
        a = sample(x[:5])
        b = sample(x[:5])
        np.testing.assert_array_equal(a, b)

    def test_different_draws_differ(self, fitted_bank):
        bank, _, _ = fitted_bank
        x_far = np.array([[0.95, 0.95]])
        values = [sampled(bank, rng=k)(x_far)[0] for k in range(8)]
        assert np.std(values) > 0.0

    def test_mean_of_draws_approaches_posterior_mean(self, fitted_bank):
        """Monte-Carlo check of exactness: averaging many sampled functions
        recovers the analytic posterior mean."""
        bank, x, _ = fitted_bank
        x_test = x[:6]
        draws = np.stack([sampled(bank, rng=k)(x_test) for k in range(600)])
        mean, var = bank.predict_target(0, x_test)
        np.testing.assert_allclose(
            draws.mean(axis=0), mean, atol=4 * np.sqrt(var.max() / 600) + 0.05
        )

    def test_variance_of_draws_approaches_posterior_variance(self, fitted_bank):
        bank, x, _ = fitted_bank
        x_test = x[:4]
        draws = np.stack([sampled(bank, rng=k)(x_test) for k in range(800)])
        _, var = bank.predict_target(0, x_test)
        np.testing.assert_allclose(draws.var(axis=0), var, rtol=0.35, atol=1e-6)

    def test_rejects_non_weight_space_models(self):
        """Thompson needs the bank's weight-space posterior: a per-target
        (GP) surrogate factory is refused when the optimizer or study is
        built, before any evaluation is spent."""
        from repro.bo.config import AcquisitionConfig
        from repro.bo.loop import SurrogateBO
        from repro.bo.study import Study
        from repro.gp import GPRegression

        thompson = AcquisitionConfig(acquisition="thompson")
        with pytest.raises(ValueError, match="surrogate_factory"):
            SurrogateBO(
                toy_constrained_quadratic(2),
                GPRegression,
                n_initial=4,
                max_evaluations=6,
                acquisition_config=thompson,
            )
        with pytest.raises(ValueError, match="surrogate_factory"):
            Study(
                toy_constrained_quadratic(2),
                surrogate_factory=GPRegression,
                acquisition=thompson,
                n_initial=4,
                max_evaluations=6,
            )


class TestThompsonAcquisition:
    def test_unconstrained_is_negated_sample(self, fitted_bank):
        bank, x, _ = fitted_bank
        acq = BankThompsonAcquisition(bank, rng=3)
        (s,), (w,) = acq._slices, acq._weights
        gp = bank.gp
        direct = (gp.features(x[:5])[s] @ w) * gp._y_scale[s] + gp._y_mean[s]
        np.testing.assert_allclose(acq(x[:5]), -direct)

    def test_infeasible_always_worse(self, fitted_bank):
        _, x, y = fitted_bank
        # constraint: g = x0 - 0.5 (feasible left half), learned from data
        g = x[:, 0] - 0.5
        acq = BankThompsonAcquisition(fit_bank(x, [y, g]), rng=0)
        feasible_pt = np.array([[0.1, 0.5]])
        infeasible_pt = np.array([[0.95, 0.5]])
        assert acq(feasible_pt)[0] > acq(infeasible_pt)[0]

    def test_ensemble_member_selection(self, rng):
        x = rng.uniform(size=(15, 2))
        y = x.sum(axis=1)
        bank = fit_bank(x, [y], n_members=3, hidden_dims=(10, 10), n_features=6)
        acq = BankThompsonAcquisition(bank, rng=1)
        assert np.all(np.isfinite(acq(x[:4])))


class TestThompsonNNBO:
    def test_nnbo_with_thompson_acquisition(self):
        """Algorithm 1 with TS instead of wEI still solves the toy problem."""
        from repro.bo.config import AcquisitionConfig, SurrogateConfig
        from repro.bo import NNBO

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
        from repro.bo import NNBO

        with pytest.raises(ValueError):
            NNBO(
                toy_constrained_quadratic(2),
                acquisition_config=AcquisitionConfig(acquisition="ucb"),
            )
