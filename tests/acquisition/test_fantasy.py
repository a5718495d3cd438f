"""Tests for the fantasy lies and the per-target bank that takes them.

Regression anchor: constant-liar lies must survive a *poisoned* history.
A failed simulation leaves NaN/inf in the observed objectives, and NaN
wins both ``np.min`` and ``np.max`` — before the fix a single poisoned
value turned every subsequent ``cl-min``/``cl-max`` lie (and through it
the fantasy-conditioned surrogate fit) into NaN.

:class:`PerTargetBank` puts per-target surrogates behind the bank surface;
its construction, fit and refit order is the per-target path's trace.
"""

import numpy as np
import pytest

from repro.acquisition.fantasy import PerTargetBank, fantasy_lies
from repro.core import BatchedFeatureGPTrainer, SurrogateBank
from repro.gp import GPRegression

from bank_stubs import stub_bank


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


def objective_lie(model, u, observed, strategy):
    """The objective's lie, for an unconstrained bank over ``model``."""
    return fantasy_lies(stub_bank(model), u, observed, strategy)[0]


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
        lies = fantasy_lies(
            stub_bank(objective, *constraints), np.array([0.1, 0.9]), observed, "cl-min"
        )
        assert lies.tolist() == [1.0, -1.0, 0.5]
        assert np.all(np.isfinite(lies))
        assert objective.n_predict_calls == 0

    @pytest.mark.parametrize("strategy", ["believer", "cl-min"])
    def test_bank_views_read_once_and_match_each_target(self, monkeypatch, strategy):
        """On the NN-GP bank the believer lies come from one stacked pass
        over the targets they need, equal to asking each target on its own."""
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
        lies = fantasy_lies(bank, u, observed, strategy).tolist()
        if strategy == "believer":
            assert (lies, calls) == (expected, [slice(0, 6)])
        else:
            assert (lies, calls) == ([-0.1, *expected[1:]], [slice(2, 6)])


class SpyModel:
    """A surrogate that logs its construction and every fit to ``log``."""

    def __init__(self, log, rng):
        self.log = log
        self.index = sum(event[0] == "new" for event in log)
        log.append(("new", self.index, int(rng.integers(1 << 30))))

    def fit(self, x, y):
        self.log.append(("fit", self.index, x.copy(), y.copy()))
        return self


def spy_bank(n_targets, log, seed=4):
    return PerTargetBank(lambda rng: SpyModel(log, rng), np.random.default_rng(seed), n_targets)


X = np.random.default_rng(9).uniform(size=(6, 2))
TARGETS = np.stack([X[:, 0] + X[:, 1], X[:, 0] - 0.5, 0.4 - X[:, 1]])


class TestPerTargetBank:
    def test_fit_builds_and_fits_each_target_in_order_from_the_rng(self):
        log = []
        spy_bank(3, log).fit(X, TARGETS)
        draws = np.random.default_rng(4).integers(1 << 30, size=3)
        assert [event[:2] for event in log] == [
            ("new", 0), ("fit", 0), ("new", 1), ("fit", 1), ("new", 2), ("fit", 2)
        ]
        assert [event[2] for event in log[::2]] == draws.tolist()
        for t, event in enumerate(log[1::2]):
            np.testing.assert_array_equal(event[2], X)
            np.testing.assert_array_equal(event[3], TARGETS[t])

    def test_fantasize_refits_every_model_on_the_augmented_rows(self):
        log = []
        bank = spy_bank(3, log).fit(X, TARGETS)
        u1, u2 = np.array([0.1, 0.2]), np.array([0.8, 0.3])
        lies1, lies2 = np.array([1.0, -1.0, 0.5]), np.array([2.0, -2.0, 0.25])
        bank.fantasize(u1, lies1)
        log.clear()
        bank.fantasize(u2, lies2)
        assert [event[:2] for event in log] == [("fit", 0), ("fit", 1), ("fit", 2)]
        for t, event in enumerate(log):
            np.testing.assert_array_equal(event[2], np.vstack([X, u1, u2]))
            np.testing.assert_array_equal(
                event[3], np.concatenate([TARGETS[t], [lies1[t], lies2[t]]])
            )
        assert bank.n_fantasies == 2

    def test_rejects_wrong_shapes(self):
        bank = spy_bank(3, [])
        with pytest.raises(ValueError, match="targets shape"):
            bank.fit(X, TARGETS[:2])
        with pytest.raises(ValueError, match="targets shape"):
            bank.fit(X[:5], TARGETS)
        bank.fit(X, TARGETS)
        with pytest.raises(ValueError, match="lie targets"):
            bank.fantasize(np.array([0.1, 0.2]), np.zeros(2))
        with pytest.raises(ValueError, match="2-dim point"):
            bank.fantasize(np.array([0.1, 0.2, 0.3]), np.zeros(3))
        assert bank.n_fantasies == 0

    def test_range_rows_equal_the_per_target_calls_bitwise(self):
        bank = PerTargetBank(
            lambda rng: GPRegression(n_restarts=1, seed=rng), np.random.default_rng(0), 3
        ).fit(X, TARGETS)
        bank.fantasize(np.array([0.5, 0.5]), np.array([0.3, -0.2, 0.1]))
        x = np.random.default_rng(1).uniform(size=(7, 2))
        for lo in range(3):
            for hi in range(lo + 1, 4):
                means, variances = bank.predict_target(range(lo, hi), x)
                for row, t in enumerate(range(lo, hi)):
                    mean, var = bank.predict_target(t, x)
                    np.testing.assert_array_equal(means[row], mean)
                    np.testing.assert_array_equal(variances[row], var)

    def test_reset_fantasies_reports_the_held_count(self):
        bank = spy_bank(3, []).fit(X, TARGETS)
        assert bank.reset_fantasies() == 0
        bank.fantasize(np.array([0.1, 0.2]), np.zeros(3))
        bank.fantasize(np.array([0.3, 0.4]), np.zeros(3))
        assert bank.reset_fantasies() == 2
        assert bank.n_fantasies == 2  # kept: each cost a refit

    def test_surrogate_bank_reset_restores_the_fantasy_free_posterior(self):
        bank = SurrogateBank(
            2,
            n_targets=3,
            n_members=2,
            hidden_dims=(8, 8),
            n_features=6,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=20),
            seed=0,
        ).fit(X, TARGETS)
        x = np.random.default_rng(2).uniform(size=(5, 2))
        clean = bank.predict_target(range(3), x)
        bank.fantasize(np.array([0.5, 0.5]), np.array([3.0, 3.0, 3.0]))
        assert not np.array_equal(bank.predict_target(range(3), x)[0], clean[0])
        assert bank.reset_fantasies() == 0
        assert bank.n_fantasies == 0
        after = bank.predict_target(range(3), x)
        np.testing.assert_array_equal(after[0], clean[0])
        np.testing.assert_array_equal(after[1], clean[1])
