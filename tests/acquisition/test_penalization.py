"""Tests for the async-aware acquisition primitives (penalization module)."""

from functools import partial

import numpy as np
import pytest

from repro.acquisition.penalization import (
    PENDING_STRATEGIES,
    HallucinatedUCB,
    LocalPenalizer,
    PenalizedAcquisition,
    estimate_lipschitz,
    validate_pending_strategy,
)
from repro.core.batched_gp import SurrogateBank

from bank_stubs import stub_bank


class LinearModel:
    """Analytic predict-protocol surrogate: mean ``w @ x``, constant var."""

    def __init__(self, w, var=0.04):
        self.w = np.asarray(w, dtype=float)
        self.var = float(var)

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x @ self.w, np.full(x.shape[0], self.var)


class TestEstimateLipschitz:
    def test_recovers_linear_gradient_norm(self):
        w = np.array([3.0, -4.0])  # ||w|| = 5
        lipschitz = estimate_lipschitz(LinearModel(w).predict, dim=2)
        assert lipschitz == pytest.approx(5.0, rel=1e-5)

    def test_flat_surface_hits_floor_not_zero(self):
        lipschitz = estimate_lipschitz(LinearModel(np.zeros(3)).predict, dim=3)
        assert 0.0 < lipschitz <= 1e-5

    def test_deterministic_and_rng_free(self):
        predict = LinearModel(np.array([1.0, 2.0, 0.5])).predict
        assert estimate_lipschitz(predict, 3) == estimate_lipschitz(predict, 3)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_lipschitz(LinearModel(np.ones(2)).predict, 2, n_samples=0)
        with pytest.raises(ValueError, match="step"):
            estimate_lipschitz(LinearModel(np.ones(2)).predict, 2, step=0.0)

    def test_bank_target_estimate_is_positive_and_repeatable(self):
        """The proposer estimates a bank's constant through ``predict_target(0, .)``."""
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(12, 2))
        targets = np.stack([np.sum(x**2, axis=1), x[:, 0] - x[:, 1]])
        bank = SurrogateBank(
            input_dim=2, n_targets=2, n_members=2,
            hidden_dims=(8, 8), n_features=6, seed=0,
        )
        bank.fit(x, targets)
        objective = partial(bank.predict_target, 0)
        lipschitz = estimate_lipschitz(objective, 2)
        assert lipschitz > 0.0
        assert estimate_lipschitz(objective, 2) == lipschitz


class TestLocalPenalizer:
    def _penalizer(self, pending=((0.5, 0.5),), means=(1.0,), variances=(0.04,)):
        return LocalPenalizer(
            np.asarray(pending, dtype=float),
            np.asarray(means),
            np.asarray(variances),
            best=0.0,
            lipschitz=2.0,
        )

    def test_penalty_vanishes_at_pending_point(self):
        penalizer = self._penalizer()
        at_pending = penalizer(np.array([[0.5, 0.5]]))[0]
        far_away = penalizer(np.array([[0.0, 0.0]]))[0]
        assert at_pending < 1e-3
        assert far_away > 0.9
        assert at_pending < far_away

    def test_values_bounded_in_unit_interval(self):
        penalizer = self._penalizer()
        rng = np.random.default_rng(1)
        values = penalizer(rng.uniform(size=(64, 2)))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_worse_pending_mean_carves_larger_ball(self):
        # pending point predicted bad (high mean) excludes a wider region
        near = np.array([[0.4, 0.5]])
        promising = self._penalizer(means=(0.1,))(near)[0]
        bad = self._penalizer(means=(3.0,))(near)[0]
        assert bad < promising

    def test_log_penalty_matches_log_of_product(self):
        penalizer = self._penalizer(
            pending=((0.5, 0.5), (0.2, 0.8)), means=(1.0, 0.5), variances=(0.04, 0.09)
        )
        x = np.random.default_rng(2).uniform(size=(16, 2))
        np.testing.assert_allclose(
            penalizer.log_penalty(x), np.log(penalizer(x)), rtol=1e-10
        )

    def test_non_finite_best_falls_back_to_pending_means(self):
        penalizer = LocalPenalizer(
            np.array([[0.5, 0.5]]), np.array([1.5]), np.array([0.04]),
            best=float("nan"), lipschitz=2.0,
        )
        assert penalizer.best == 1.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LocalPenalizer(
                np.array([[0.5, 0.5]]), np.array([1.0, 2.0]), np.array([0.04]),
                best=0.0, lipschitz=1.0,
            )


class TestPenalizedAcquisition:
    def test_plain_space_multiplies(self):
        penalizer = LocalPenalizer(
            np.array([[0.5, 0.5]]), np.array([1.0]), np.array([0.04]),
            best=0.0, lipschitz=2.0,
        )

        def base_acq(x):
            return np.full(np.atleast_2d(x).shape[0], 3.0)

        acq = PenalizedAcquisition(base_acq, penalizer)
        x = np.array([[0.5, 0.5], [0.0, 0.0]])
        np.testing.assert_allclose(acq(x), 3.0 * penalizer(x))

    def test_log_space_adds(self):
        penalizer = LocalPenalizer(
            np.array([[0.5, 0.5]]), np.array([1.0]), np.array([0.04]),
            best=0.0, lipschitz=2.0,
        )

        def log_base(x):
            return np.full(np.atleast_2d(x).shape[0], -2.0)

        acq = PenalizedAcquisition(log_base, penalizer, log_space=True)
        x = np.array([[0.1, 0.9]])
        np.testing.assert_allclose(acq(x), -2.0 + penalizer.log_penalty(x))


class TestHallucinatedUCB:
    def test_optimistic_improvement_value(self):
        model = LinearModel(np.array([1.0, 0.0]), var=0.04)
        acq = HallucinatedUCB(stub_bank(model), tau=0.5, kappa=2.0)
        # mean 0.3, sigma 0.2 -> lcb = -0.1 -> improvement 0.6
        value = acq(np.array([[0.3, 0.7]]))[0]
        assert value == pytest.approx(0.6)
        # clipped at zero when the bound cannot improve
        assert acq(np.array([[5.0, 0.0]]))[0] == 0.0

    def test_feasibility_weighting(self):
        objective = LinearModel(np.array([1.0, 0.0]), var=0.04)
        constraint = LinearModel(np.array([0.0, 0.0]), var=1.0)  # PF = 0.5
        acq = HallucinatedUCB(stub_bank(objective, constraint), tau=0.5, kappa=2.0)
        value = acq(np.array([[0.3, 0.7]]))[0]
        assert value == pytest.approx(0.5 * 0.6)

    def test_no_incumbent_degenerates_to_feasibility(self):
        constraint = LinearModel(np.array([0.0, 0.0]), var=1.0)
        acq = HallucinatedUCB(stub_bank(LinearModel(np.ones(2)), constraint), tau=None)
        np.testing.assert_allclose(acq(np.zeros((3, 2))), 0.5)

    def test_log_space_is_monotone_transform(self):
        objective = LinearModel(np.array([1.0, -0.5]), var=0.09)
        constraint = LinearModel(np.array([0.3, 0.3]), var=0.25)
        bank = stub_bank(objective, constraint)
        plain = HallucinatedUCB(bank, tau=0.4, kappa=1.5)
        logged = HallucinatedUCB(bank, tau=0.4, kappa=1.5, log_space=True)
        x = np.random.default_rng(3).uniform(size=(32, 2))
        p, lg = plain(x), logged(x)
        assert np.argmax(p) == np.argmax(lg)
        positive = p > 1e-200
        np.testing.assert_allclose(lg[positive], np.log(p[positive]), rtol=1e-8)

    def test_larger_kappa_explores_more(self):
        model = LinearModel(np.array([1.0, 0.0]), var=0.04)
        x = np.array([[0.3, 0.7]])
        low = HallucinatedUCB(stub_bank(model), tau=0.5, kappa=0.5)(x)[0]
        high = HallucinatedUCB(stub_bank(model), tau=0.5, kappa=4.0)(x)[0]
        assert high > low

    def test_validates_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            HallucinatedUCB(stub_bank(LinearModel(np.ones(2))), tau=0.0, kappa=-1.0)


class TestValidatePendingStrategy:
    def test_accepts_all_strategies_with_wei(self):
        for strategy in PENDING_STRATEGIES:
            assert validate_pending_strategy(strategy, "wei") == strategy

    def test_fantasy_composes_with_thompson(self):
        assert validate_pending_strategy("fantasy", "thompson") == "fantasy"

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="pending_strategy"):
            validate_pending_strategy("lie-harder", "wei")

    def test_rejects_non_fantasy_with_thompson(self):
        with pytest.raises(ValueError, match="acquisition='wei'"):
            validate_pending_strategy("penalize", "thompson")
        with pytest.raises(ValueError, match="acquisition='wei'"):
            validate_pending_strategy("hallucinate", "thompson")
