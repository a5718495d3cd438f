"""Tests for the generic constrained-BO driver (Algorithm 1)."""

import numpy as np
import pytest

from repro.acquisition.maximize import AcquisitionMaximizer
from repro.bo.config import AcquisitionConfig
from repro.bo.loop import SurrogateBO, _sanitize_targets
from repro.bo.problem import FunctionProblem
from repro.bo.proposer import Proposer
from repro.bo.study import Study
from repro.benchfns import toy_constrained_quadratic
from repro.core import BatchedFeatureGPTrainer, SurrogateBank
from repro.gp import GPRegression


def gp_factory(rng):
    return GPRegression(n_restarts=1, seed=rng)


def tiny_bank_factory(rng, n_targets):
    return SurrogateBank(
        2,
        n_targets=n_targets,
        n_members=2,
        hidden_dims=(10, 10),
        n_features=6,
        trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=25),
        seed=rng,
    )


class TestLoopMechanics:
    def test_respects_budget_exactly(self):
        problem = toy_constrained_quadratic(2)
        bo = SurrogateBO(problem, gp_factory, n_initial=6, max_evaluations=10, seed=0)
        result = bo.run()
        assert result.n_evaluations == 10

    def test_initial_phase_labelled(self):
        problem = toy_constrained_quadratic(2)
        bo = SurrogateBO(problem, gp_factory, n_initial=5, max_evaluations=8, seed=0)
        result = bo.run()
        phases = [r.phase for r in result.records]
        assert phases[:5] == ["initial"] * 5
        assert phases[5:] == ["search"] * 3

    def test_all_points_inside_bounds(self):
        problem = toy_constrained_quadratic(3)
        bo = SurrogateBO(problem, gp_factory, n_initial=6, max_evaluations=12, seed=1)
        result = bo.run()
        x = result.x_matrix
        assert np.all(x >= problem.lower - 1e-12)
        assert np.all(x <= problem.upper + 1e-12)

    def test_callback_invoked_each_iteration(self):
        problem = toy_constrained_quadratic(2)
        seen = []
        bo = SurrogateBO(
            problem, gp_factory, n_initial=5, max_evaluations=8,
            callback=lambda it, res: seen.append((it, res.n_evaluations)), seed=0,
        )
        bo.run()
        assert seen == [(1, 6), (2, 7), (3, 8)]

    def test_budget_must_cover_initial(self):
        problem = toy_constrained_quadratic(2)
        with pytest.raises(ValueError):
            SurrogateBO(problem, gp_factory, n_initial=20, max_evaluations=10)

    def test_n_initial_minimum(self):
        problem = toy_constrained_quadratic(2)
        with pytest.raises(ValueError):
            SurrogateBO(problem, gp_factory, n_initial=1, max_evaluations=10)

    def test_log_space_auto_enables_for_many_constraints(self):
        many = FunctionProblem(
            "many", [0.0], [1.0],
            objective=lambda x: float(x[0]),
            constraints=[lambda x, k=k: float(x[0] - 1 + 0.1 * k) for k in range(5)],
        )
        bo = SurrogateBO(many, gp_factory, n_initial=4, max_evaluations=5)
        assert bo.log_space_acq
        few = toy_constrained_quadratic(2)
        bo = SurrogateBO(few, gp_factory, n_initial=4, max_evaluations=5)
        assert not bo.log_space_acq

    def test_reproducible_runs(self):
        problem = toy_constrained_quadratic(2)
        a = SurrogateBO(problem, gp_factory, n_initial=5, max_evaluations=9, seed=5).run()
        b = SurrogateBO(problem, gp_factory, n_initial=5, max_evaluations=9, seed=5).run()
        np.testing.assert_allclose(a.x_matrix, b.x_matrix)

    def test_requires_some_surrogate_source(self):
        with pytest.raises(ValueError):
            SurrogateBO(toy_constrained_quadratic(2), n_initial=4, max_evaluations=6)

    def test_bank_supports_thompson(self):
        """The bank path gained posterior sampling: Thompson now runs on it."""
        bo = SurrogateBO(
            toy_constrained_quadratic(2),
            surrogate_bank_factory=tiny_bank_factory,
            acquisition_config=AcquisitionConfig(acquisition="thompson"),
            n_initial=4,
            max_evaluations=6,
            seed=0,
        )
        result = bo.run()
        assert result.n_evaluations == 6

    def test_cache_counters_on_result(self):
        """A fresh problem records only misses; rerunning the same points
        on the same problem instance hits the memoization cache."""
        problem = toy_constrained_quadratic(2)
        result = SurrogateBO(
            problem, gp_factory, n_initial=5, max_evaluations=8, seed=0
        ).run()
        assert result.cache_misses == result.n_evaluations
        assert result.cache_hits == 0
        again = SurrogateBO(
            problem, gp_factory, n_initial=5, max_evaluations=8, seed=0
        ).run()
        # identical seed -> the 5 initial-design points repeat exactly
        assert again.cache_hits >= 5


class TestBankPath:
    def test_bank_driven_run(self):
        problem = toy_constrained_quadratic(2)
        bo = SurrogateBO(
            problem,
            surrogate_bank_factory=tiny_bank_factory,
            n_initial=6,
            max_evaluations=9,
            seed=2,
        )
        result = bo.run()
        assert result.n_evaluations == 9
        assert bo.surrogate_factory is None

    def test_bank_preferred_over_factory(self):
        """With both sources configured, the proposer fits through the bank."""
        problem = toy_constrained_quadratic(2)
        calls = []

        def counting_factory(rng):
            calls.append(1)
            return GPRegression(n_restarts=1, seed=rng)

        bo = SurrogateBO(
            problem,
            counting_factory,
            surrogate_bank_factory=tiny_bank_factory,
            n_initial=5,
            max_evaluations=7,
            seed=0,
        )
        bo.run()
        assert calls == []


class TestDuplicateResampling:
    class _ReturnExisting(AcquisitionMaximizer):
        """Always proposes the first already-evaluated design."""

        def __init__(self, outer):
            self.outer = outer

        def maximize(self, acquisition, dim, rng=None):
            return self.outer["x0"].copy()

    def test_resampled_point_is_not_a_duplicate(self):
        problem = toy_constrained_quadratic(2)
        holder = {}
        bo = SurrogateBO(
            problem,
            gp_factory,
            n_initial=4,
            max_evaluations=8,
            acq_maximizer=self._ReturnExisting(holder),
            acquisition_config=AcquisitionConfig(duplicate_tol=1e-6),
            seed=7,
        )
        study = Study.from_optimizer(bo)
        original_propose = study.proposer.propose
        seen = []

        def spying_propose(x_unit, result, n=1, pending=()):
            holder["x0"] = x_unit[0]
            proposals = original_propose(x_unit, result, n, pending)
            seen.extend((proposal, x_unit.copy()) for proposal in proposals)
            return proposals

        study.proposer.propose = spying_propose
        bo.run_study(study)
        assert seen, "search phase never ran"
        for proposal, x_unit in seen:
            dists = np.max(np.abs(x_unit - proposal[None, :]), axis=1)
            assert np.all(dists >= bo.acquisition_config.duplicate_tol)

    def test_resample_is_bounded(self):
        """When every draw is a duplicate the loop terminates anyway."""
        problem = toy_constrained_quadratic(1)
        bo = SurrogateBO(
            problem, gp_factory, n_initial=2, max_evaluations=3,
            # the whole unit box is "duplicate"
            acquisition_config=AcquisitionConfig(duplicate_tol=2.0),
            seed=0,
        )
        x_unit = np.array([[0.5]])
        proposal = Proposer(bo)._resample_non_duplicate(x_unit)
        assert proposal.shape == (1,)
        assert 0.0 <= proposal[0] <= 1.0


class TestOptimizationQuality:
    def test_converges_near_constrained_optimum(self):
        """Optimum of the toy problem is 0.5 on the constraint boundary;
        BO with a GP surrogate should approach it within a modest budget."""
        problem = toy_constrained_quadratic(2)
        bo = SurrogateBO(problem, gp_factory, n_initial=8, max_evaluations=30, seed=3)
        result = bo.run()
        assert result.success
        assert result.best_objective() < 0.65

    def test_beats_random_search(self):
        problem = toy_constrained_quadratic(2)
        bo_best = SurrogateBO(
            problem, gp_factory, n_initial=8, max_evaluations=25, seed=0
        ).run().best_objective()
        rng = np.random.default_rng(0)
        random_best = np.inf
        for _ in range(25):
            ev = problem.evaluate_unit(rng.uniform(size=2))
            if ev.feasible:
                random_best = min(random_best, ev.objective)
        assert bo_best <= random_best + 0.05


class TestSanitizeTargets:
    def test_finite_passthrough(self):
        y = np.array([1.0, 2.0])
        np.testing.assert_array_equal(_sanitize_targets(y), y)

    def test_replaces_inf_with_pessimistic(self):
        y = np.array([1.0, np.inf, 3.0])
        out = _sanitize_targets(y)
        assert np.all(np.isfinite(out))
        assert out[1] > 3.0

    def test_all_bad_targets(self):
        out = _sanitize_targets(np.array([np.inf, np.nan]))
        assert np.all(np.isfinite(out))

    def test_does_not_mutate_input(self):
        y = np.array([np.inf, 1.0])
        _sanitize_targets(y)
        assert np.isinf(y[0])

    def test_winsorizes_extreme_outlier(self):
        """A -300-ish outlier among O(100) targets must be pulled in."""
        y = np.concatenate([np.linspace(60.0, 110.0, 30), [-300.0]])
        out = _sanitize_targets(y)
        assert out.min() > -200.0
        # ordinary values untouched
        np.testing.assert_array_equal(out[:30], y[:30])

    def test_moderate_spread_untouched(self):
        y = np.linspace(-5.0, 5.0, 20)
        np.testing.assert_array_equal(_sanitize_targets(y), y)
