"""Tests for weighted Expected Improvement (paper eq. 7)."""

import numpy as np
import pytest

from repro.acquisition.base import expected_improvement, probability_of_feasibility
from repro.acquisition.penalization import (
    HallucinatedUCB,
    LocalPenalizer,
    PenalizedAcquisition,
)
from repro.acquisition.wei import WeightedExpectedImprovement
from repro.core import BatchedFeatureGPTrainer, SurrogateBank

from bank_stubs import stub_bank


class StubModel:
    """Surrogate stub returning position-dependent mean/variance."""

    def __init__(self, fn_mean, fn_var=None):
        self.fn_mean = fn_mean
        self.fn_var = fn_var or (lambda x: np.full(x.shape[0], 0.25))

    def predict(self, x):
        x = np.atleast_2d(x)
        return self.fn_mean(x), self.fn_var(x)


def flat(value):
    return StubModel(lambda x: np.full(x.shape[0], float(value)))


class Unread:
    """An objective feasibility search must never ask."""

    def predict(self, x):
        raise AssertionError("the objective was read without an incumbent")


class TestComposition:
    def test_equals_ei_times_pf(self, rng):
        obj = StubModel(lambda x: x[:, 0])
        con = StubModel(lambda x: x[:, 1] - 0.5)
        acq = WeightedExpectedImprovement(stub_bank(obj, con), tau=0.5)
        x = rng.uniform(size=(20, 2))
        values = acq(x)
        mu_o, var_o = obj.predict(x)
        mu_c, var_c = con.predict(x)
        expected = expected_improvement(mu_o, var_o, 0.5) * probability_of_feasibility(
            mu_c, var_c
        )
        np.testing.assert_allclose(values, expected, rtol=1e-10)

    def test_multiple_constraints_multiply(self, rng):
        obj = flat(0.0)
        cons = [flat(-1.0), flat(0.0), flat(1.0)]
        acq_all = WeightedExpectedImprovement(stub_bank(obj, *cons), tau=1.0)
        x = rng.uniform(size=(5, 2))
        single = [
            WeightedExpectedImprovement(stub_bank(obj, c), tau=1.0)(x) for c in cons
        ]
        ei_alone = WeightedExpectedImprovement(stub_bank(obj), tau=1.0)(x)
        np.testing.assert_allclose(
            acq_all(x), single[0] * single[1] * single[2] / ei_alone**2, rtol=1e-8
        )

    def test_no_constraints_is_plain_ei(self, rng):
        obj = StubModel(lambda x: x[:, 0])
        acq = WeightedExpectedImprovement(stub_bank(obj), tau=0.3)
        x = rng.uniform(size=(10, 2))
        mu, var = obj.predict(x)
        np.testing.assert_allclose(acq(x), expected_improvement(mu, var, 0.3))


class TestFeasibilityPhase:
    def test_tau_none_uses_pf_only(self, rng):
        """Before any feasible point: acquisition is the PF product alone."""
        con = StubModel(lambda x: x[:, 0] - 0.5)
        acq = WeightedExpectedImprovement(stub_bank(flat(0.0), con), tau=None)
        x = rng.uniform(size=(10, 2))
        mu_c, var_c = con.predict(x)
        np.testing.assert_allclose(acq(x), probability_of_feasibility(mu_c, var_c))

    def test_prefers_likely_feasible_region(self):
        con = StubModel(lambda x: x[:, 0] - 0.5)  # feasible for x0 < 0.5
        acq = WeightedExpectedImprovement(stub_bank(Unread(), con), tau=None)
        low = acq(np.array([[0.1, 0.5]]))[0]
        high = acq(np.array([[0.9, 0.5]]))[0]
        assert low > high

    @pytest.mark.parametrize("log_space, empty", [(False, 1.0), (True, 0.0)])
    def test_nothing_to_read_is_the_empty_product(self, log_space, empty):
        """No incumbent and no constraints: a flat surface, read off no target."""
        acq = WeightedExpectedImprovement(stub_bank(Unread()), tau=None, log_space=log_space)
        np.testing.assert_array_equal(acq(np.zeros((3, 2))), np.full(3, empty))


class TestLogSpace:
    def test_log_space_preserves_ranking(self, rng):
        obj = StubModel(lambda x: x[:, 0])
        cons = [StubModel(lambda x, k=k: x[:, 1] - 0.3 * k) for k in range(1, 4)]
        lin = WeightedExpectedImprovement(stub_bank(obj, *cons), tau=0.5, log_space=False)
        log = WeightedExpectedImprovement(stub_bank(obj, *cons), tau=0.5, log_space=True)
        x = rng.uniform(size=(30, 2))
        order_lin = np.argsort(lin(x))
        order_log = np.argsort(log(x))
        # rankings must agree where the linear value is not underflowed
        values = lin(x)
        keep = values > 1e-200
        np.testing.assert_array_equal(order_lin[keep[order_lin]], order_log[keep[order_log]])

    def test_log_space_survives_many_constraints(self):
        """With 40 hopeless constraints the plain product is exactly 0 but
        log space still discriminates."""
        cons = [flat(5.0) for _ in range(40)]
        acq = WeightedExpectedImprovement(stub_bank(flat(0.0), *cons), tau=1.0, log_space=True)
        a = acq(np.zeros((1, 2)))[0]
        cons_worse = [flat(6.0) for _ in range(40)]
        acq_worse = WeightedExpectedImprovement(
            stub_bank(flat(0.0), *cons_worse), tau=1.0, log_space=True
        )
        b = acq_worse(np.zeros((1, 2)))[0]
        assert np.isfinite(a) and np.isfinite(b)
        assert a > b

    def test_repr_mentions_phase(self):
        acq = WeightedExpectedImprovement(stub_bank(flat(0.0)), tau=None)
        assert "feasibility-search" in repr(acq)
        acq = WeightedExpectedImprovement(stub_bank(flat(0.0)), tau=1.0)
        assert "tau=1" in repr(acq)


KW = dict(hidden_dims=(12, 12), n_features=8)
K = 3  # members per target


def fitted_bank():
    """An objective and three constraints, K members each, fitted in one bank."""
    x = np.random.default_rng(3).uniform(size=(24, 3))
    targets = np.stack(
        [
            np.sin(3.0 * x[:, 0]) + x[:, 1],
            x[:, 0] - 0.6,
            np.cos(2.0 * x[:, 1]) - 0.5 * x[:, 2] - 0.2,
            x[:, 2] ** 2 - 0.3,
        ]
    )
    bank = SurrogateBank(
        3,
        n_targets=4,
        n_members=K,
        trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=30),
        seed=1,
        **KW,
    )
    return bank.fit(x, targets)


class PredictOnly:
    """One bank target behind ``predict(x)`` alone: one model of the
    per-model reference (:func:`stub_bank` over these loops model by model)."""

    def __init__(self, bank, target):
        self._bank = bank
        self._target = target

    def predict(self, x):
        return self._bank.predict_target(self._target, x)


def factor_by_factor(models, tau, log_space, x):
    """Eq. 7 one factor at a time, in order: EI (given an incumbent), then
    each constraint's PF, each model asked on its own."""
    objective, *constraints = models
    factors = [] if tau is None else [expected_improvement(*objective.predict(x), tau)]
    factors += [probability_of_feasibility(*model.predict(x)) for model in constraints]
    value = np.zeros(len(x)) if log_space else np.ones(len(x))
    for factor in factors:
        value = value + np.log(np.maximum(factor, 1e-300)) if log_space else value * factor
    return value


def acquisition_family(bank, tau, log_space, penalizer):
    """wEI, hallucinated UCB and penalized wEI over the same bank."""
    wei = WeightedExpectedImprovement(bank, tau=tau, log_space=log_space)
    return [
        wei,
        HallucinatedUCB(bank, tau=tau, kappa=1.5, log_space=log_space),
        PenalizedAcquisition(wei, penalizer, log_space=log_space),
    ]


class TestSinglePass:
    """On the NN-GP bank every call is one stacked pass over the targets it
    reads; the per-model loop over predict-only adapters is the reference,
    and the values must be bitwise equal."""

    @pytest.mark.parametrize("tau", [None, 0.4])
    @pytest.mark.parametrize("log_space", [False, True])
    @pytest.mark.parametrize("rows", [1, 144])
    def test_bitwise_equal_to_per_model_loop(self, tau, log_space, rows):
        bank = fitted_bank()
        rng = np.random.default_rng(rows)
        pending = rng.uniform(size=(2, 3))
        mean, var = bank.predict_target(0, pending)
        penalizer = LocalPenalizer(pending, mean, var, best=0.1, lipschitz=2.0)
        if rows == 1:  # single-row probes, as the polish sends them
            batches = list(rng.uniform(-0.2, 1.2, size=(48, 1, 3)))
        else:  # one DE-sized batch
            batches = [rng.uniform(-0.2, 1.2, size=(rows, 3))]

        def check():
            loop = [PredictOnly(bank, t) for t in range(4)]
            fast = acquisition_family(bank, tau, log_space, penalizer)
            slow = acquisition_family(stub_bank(*loop), tau, log_space, penalizer)
            for single, per_model in zip(fast, slow):
                for x in batches:
                    np.testing.assert_array_equal(single(x), per_model(x))
            for x in batches:
                expected = factor_by_factor(loop, tau, log_space, x)
                np.testing.assert_array_equal(fast[0](x), expected)

        check()
        bank.fantasize(np.array([0.45, 0.55, 0.5]), np.array([0.1, -0.2, 0.3, -0.1]))
        check()
        bank.observe(np.array([0.2, 0.8, 0.6]), np.array([0.0, 0.1, -0.1, 0.2]))
        check()
        bank.clear_fantasies()
        check()

    @pytest.mark.parametrize("tau, read", [(None, slice(K, 4 * K)), (0.4, slice(0, 4 * K))])
    def test_one_pass_over_the_targets_read(self, monkeypatch, tau, read):
        """Feasibility search (tau None) never computes the objective's
        slices; with an incumbent the one pass covers every target."""
        bank = fitted_bank()
        predict = bank.gp.predict
        calls = []

        def spy(x, include_noise=False, slices=slice(None)):
            calls.append(slices)
            return predict(x, include_noise=include_noise, slices=slices)

        monkeypatch.setattr(bank.gp, "predict", spy)
        acq = WeightedExpectedImprovement(bank, tau=tau, log_space=True)
        for x in np.random.default_rng(0).uniform(size=(5, 1, 3)):
            acq(x)
        assert calls == [read] * 5
