"""Tests for the fantasy (constant-liar / believer) lie values.

Regression anchor: constant-liar lies must survive a *poisoned* history.
A failed simulation leaves NaN/inf in the observed objectives, and NaN
wins both ``np.min`` and ``np.max`` — before the fix a single poisoned
value turned every subsequent ``cl-min``/``cl-max`` lie (and through it
the fantasy-conditioned surrogate fit) into NaN.
"""

import numpy as np
import pytest

from repro.acquisition.fantasy import fantasy_lies, objective_lie
from repro.core import BatchedFeatureGPTrainer, SurrogateBank


class ConstantMeanModel:
    """Predict-protocol stub with a fixed posterior mean."""

    def __init__(self, mean=7.5, var=0.25):
        self.mean = float(mean)
        self.var = float(var)
        self.n_predict_calls = 0

    def predict(self, x):
        self.n_predict_calls += 1
        n = np.atleast_2d(x).shape[0]
        return np.full(n, self.mean), np.full(n, self.var)


class TestObjectiveLie:
    U = np.array([0.3, 0.7])

    def test_clean_history_extrema(self):
        observed = np.array([2.0, -1.0, 4.0])
        model = ConstantMeanModel()
        assert objective_lie(model, self.U, observed, "cl-min") == -1.0
        assert objective_lie(model, self.U, observed, "cl-max") == 4.0
        assert model.n_predict_calls == 0

    def test_believer_uses_posterior_mean(self):
        model = ConstantMeanModel(mean=3.25)
        lie = objective_lie(model, self.U, np.array([1.0, 2.0]), "believer")
        assert lie == 3.25

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_poisoned_history_ignored_by_constant_liar(self, poison):
        """Regression: one non-finite observation must not poison the lie."""
        observed = np.array([2.0, poison, -1.0, 4.0])
        model = ConstantMeanModel()
        lie_min = objective_lie(model, self.U, observed, "cl-min")
        lie_max = objective_lie(model, self.U, observed, "cl-max")
        assert np.isfinite(lie_min) and lie_min == -1.0
        assert np.isfinite(lie_max) and lie_max == 4.0

    def test_all_poisoned_falls_back_to_believer(self):
        observed = np.array([np.nan, np.inf])
        model = ConstantMeanModel(mean=1.5)
        assert objective_lie(model, self.U, observed, "cl-min") == 1.5
        assert objective_lie(model, self.U, observed, "cl-max") == 1.5
        assert model.n_predict_calls == 2

    def test_empty_history_falls_back_to_believer(self):
        model = ConstantMeanModel(mean=-0.5)
        assert objective_lie(model, self.U, np.array([]), "cl-min") == -0.5

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="fantasy strategy"):
            objective_lie(ConstantMeanModel(), self.U, np.array([1.0]), "cl-median")


class TestFantasyLies:
    def test_poisoned_history_yields_finite_lies(self):
        objective = ConstantMeanModel(mean=2.0)
        constraints = [ConstantMeanModel(mean=-1.0), ConstantMeanModel(mean=0.5)]
        observed = np.array([np.nan, 3.0, np.inf, 1.0])
        obj_lie, cons_lies = fantasy_lies(
            objective, constraints, np.array([0.1, 0.9]), observed, "cl-min"
        )
        assert obj_lie == 1.0
        assert cons_lies == [-1.0, 0.5]
        assert np.all(np.isfinite([obj_lie, *cons_lies]))

    @pytest.mark.parametrize("strategy", ["believer", "cl-min"])
    def test_bank_views_read_once_and_match_each_target(self, monkeypatch, strategy):
        """Over one bank's target views the believer lies come from one
        stacked pass, equal to asking each target on its own."""
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(16, 2))
        bank = SurrogateBank(
            2,
            n_targets=3,
            n_members=2,
            hidden_dims=(8, 8),
            n_features=6,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=20),
            seed=0,
        )
        bank.fit(x, np.stack([x[:, 0] + x[:, 1], x[:, 0] - 0.5, 0.4 - x[:, 1]]))
        u = np.array([0.3, 0.6])
        expected = [float(bank.predict_target(t, u[None, :])[0][0]) for t in range(3)]
        predict = bank.gp.predict
        calls = []

        def spy(x, include_noise=False, slices=slice(None)):
            calls.append(slices)
            return predict(x, include_noise=include_noise, slices=slices)

        monkeypatch.setattr(bank.gp, "predict", spy)
        observed = np.array([0.2, -0.1])
        obj_lie, cons_lies = fantasy_lies(
            bank.target_model(0),
            [bank.target_model(1), bank.target_model(2)],
            u,
            observed,
            strategy,
        )
        if strategy == "believer":
            assert (obj_lie, cons_lies, calls) == (expected[0], expected[1:], [slice(0, 6)])
        else:
            assert (obj_lie, cons_lies, calls) == (-0.1, expected[1:], [slice(2, 6)])
