"""Tests for the convergence-curve experiment machinery."""

import warnings

import numpy as np
import pytest

from repro.bo.config import SurrogateConfig
from repro.bo.history import OptimizationResult
from repro.bo.problem import Evaluation
from repro.experiments.convergence import (
    make_optimizer,
    mean_convergence,
    run_convergence,
)


def result_with_curve(values, feasible_from=0):
    result = OptimizationResult("toy", "X")
    for i, value in enumerate(values):
        g = np.array([-1.0]) if i >= feasible_from else np.array([1.0])
        result.append(np.array([0.0]), Evaluation(value, g))
    return result


class TestMeanConvergence:
    def test_pointwise_average(self):
        a = result_with_curve([4.0, 2.0, 2.0])
        b = result_with_curve([6.0, 6.0, 4.0])
        curve = mean_convergence([a, b])
        np.testing.assert_allclose(curve, [5.0, 4.0, 3.0])

    def test_infeasible_prefix_ignored(self):
        a = result_with_curve([9.0, 2.0, 2.0], feasible_from=1)
        b = result_with_curve([4.0, 4.0, 4.0])
        curve = mean_convergence([a, b])
        assert curve[0] == pytest.approx(4.0)  # only b feasible at sim 1
        assert curve[1] == pytest.approx(3.0)

    def test_all_infeasible_point_is_nan(self):
        a = result_with_curve([1.0, 1.0], feasible_from=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = mean_convergence([a])
        assert np.isnan(curve[0])


class TestOptimizerFactory:
    @pytest.mark.parametrize("name", ["NN-BO", "WEIBO", "GASPAD", "DE"])
    def test_budgets_forwarded(self, name):
        opt = make_optimizer(name, seed=0, n_initial=10, budget=30)
        assert opt.max_evaluations == 30

    def test_nnbo_surrogate_settings_pinned(self):
        opt = make_optimizer("NN-BO", seed=0, n_initial=10, budget=30)
        assert opt.surrogate_config == SurrogateConfig(
            n_ensemble=3, hidden_dims=(32, 32), n_features=24, epochs=150
        )

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_optimizer("SA", 0, 10, 30)


class TestRunConvergence:
    def test_small_de_run_structure(self):
        columns = run_convergence(
            algorithms=("DE",), n_initial=8, budget=16, n_repeats=2, seed=0,
            checkpoints=[8, 16],
        )
        assert set(columns) == {"DE"}
        assert set(columns["DE"]) == {"@ 8 sims", "@ 16 sims"}
        values = [v for v in columns["DE"].values() if v is not None]
        # curves are in GAIN (dB): monotone non-decreasing with budget
        if len(values) == 2:
            assert values[1] >= values[0] - 1e-9
