"""End-to-end integration tests: the full Algorithm 1 stack against the
real circuit testbenches, at miniature budgets.

These are the closest CI analogue of the paper's experiments: every layer
(simulator -> testbench -> surrogate -> acquisition -> loop -> statistics)
runs together.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import DifferentialEvolution, WEIBO
from repro.bo import NNBO
from repro.bo.config import SurrogateConfig
from repro.circuits.pvt import standard_corners
from repro.circuits.testbenches import ChargePumpProblem, TwoStageOpAmpProblem
from repro.experiments.runner import run_repeats, summarize

#: miniature NN-GP ensemble shared by the end-to-end runs
MINI_NN = SurrogateConfig(n_ensemble=2, hidden_dims=(16, 16), n_features=12, epochs=60)


@pytest.fixture(scope="module")
def opamp_nnbo_result():
    problem = TwoStageOpAmpProblem()
    return NNBO(
        problem,
        n_initial=10,
        max_evaluations=22,
        surrogate=MINI_NN,
        seed=11,
    ).run()


class TestOpAmpEndToEnd:
    def test_completes_budget(self, opamp_nnbo_result):
        assert opamp_nnbo_result.n_evaluations == 22

    def test_finds_feasible_design(self, opamp_nnbo_result):
        """~30% of the space is feasible; 22 sims must find it."""
        assert opamp_nnbo_result.success

    def test_best_design_meets_specs(self, opamp_nnbo_result):
        best = opamp_nnbo_result.best_feasible()
        metrics = best.evaluation.metrics
        assert metrics["ugf_hz"] > 40e6
        assert metrics["pm_deg"] > 60.0
        assert metrics["gain_db"] > 40.0

    def test_search_improves_over_initial(self, opamp_nnbo_result):
        curve = opamp_nnbo_result.best_so_far()
        assert curve[-1] <= curve[9]


class TestOpAmpWEIBOComparison:
    def test_both_bo_methods_succeed_quickly(self):
        """Scaled-down Table I shape: both BO methods succeed at a budget
        where the paper's weakest baseline (plain DE) typically has not
        converged to a comparable gain."""
        problem = TwoStageOpAmpProblem()
        nnbo = NNBO(problem, n_initial=10, max_evaluations=20,
                    surrogate=MINI_NN, seed=0).run()
        weibo = WEIBO(problem, n_initial=10, max_evaluations=20, seed=0).run()
        assert nnbo.success and weibo.success
        de = DifferentialEvolution(problem, pop_size=10,
                                   max_evaluations=20, seed=0).run()
        # With the same tiny budget DE cannot be *far* ahead of the BO
        # methods (the paper's gap in the other direction appears at full
        # budgets; single-seed micro-runs only support a loose bound).
        best_bo = min(nnbo.best_objective(), weibo.best_objective())
        assert best_bo <= de.best_objective() + 10.0


class TestChargePumpEndToEnd:
    def test_nnbo_reduces_violation_on_charge_pump(self):
        """At miniature budgets feasibility is not guaranteed; the search
        must still drive constraint violation down vs the initial set."""
        problem = ChargePumpProblem(
            corners=standard_corners(processes=("TT",), vdd_scales=(1.0,),
                                     temps_c=(27.0,))
        )
        result = NNBO(problem, n_initial=10, max_evaluations=18,
                      surrogate=replace(MINI_NN, epochs=50), seed=5).run()
        assert result.n_evaluations == 18
        violations = [r.evaluation.violation for r in result.records]
        # 8 search iterations cannot guarantee beating the best of 10 LHS
        # samples, but they must clearly beat the *typical* initial sample
        assert min(violations[10:]) <= np.median(violations[:10])


class TestStatisticsHarnessIntegration:
    def test_repeated_runs_summary(self):
        problem = TwoStageOpAmpProblem()
        results = run_repeats(
            lambda seed: WEIBO(problem, n_initial=8, max_evaluations=14, seed=seed),
            n_repeats=2,
            seed=3,
        )
        summary = summarize(results)
        assert summary.n_runs == 2
        assert summary.algorithm == "WEIBO"
        if summary.n_success:
            assert summary.avg_sims <= 14
            # objective is -GAIN: table rows flip the sign
            assert -summary.best > 40.0
