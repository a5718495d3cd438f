"""Tests for the propose/evaluate scheduler (q-point BO + executors).

Two determinism contracts anchor the refactor:

* ``q=1`` with the serial executor reproduces the legacy single-point
  loop bitwise (same RNG stream, same evaluations, same history);
* the same seed and the same ``q`` yield identical proposal batches on
  the serial, thread and process executors — completion order must never
  leak into the recorded history.
"""

import itertools
import time

import numpy as np
import pytest

from repro.bo.config import AcquisitionConfig, SchedulerConfig, SurrogateConfig
from repro.bo.design import make_design
from repro.bo.history import OptimizationResult
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.problem import FunctionProblem
from repro.bo.proposer import Proposer
from repro.bo.scheduler import (
    ProcessPoolEvaluator,
    SerialEvaluator,
    ThreadPoolEvaluator,
    make_evaluator,
)
from repro.benchfns import toy_constrained_quadratic
from repro.gp import GPRegression


def gp_factory(rng):
    return GPRegression(n_restarts=1, seed=rng)


#: a small NN-GP ensemble that keeps the NNBO pins fast
SMALL_NN = SurrogateConfig(
    n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20
)


# module-level objective/constraint so the problem pickles into pool workers
def _quadratic_objective(x):
    return float(np.sum((x - 0.3) ** 2))


def _ring_constraint(x):
    return float(0.04 - np.sum((x - 0.6) ** 2))


def make_picklable_problem(dim: int = 2) -> FunctionProblem:
    return FunctionProblem(
        "picklable_quadratic",
        np.zeros(dim),
        np.ones(dim),
        objective=_quadratic_objective,
        constraints=[_ring_constraint],
    )


def legacy_run(bo: SurrogateBO) -> OptimizationResult:
    """The pre-scheduler single-point loop, replicated verbatim.

    A fresh fit and proposal per iteration (a new :class:`Proposer` keeps
    no state between iterations), then evaluate and append, in the same
    order the original ``run()`` did, so any scheduler-induced deviation
    — extra RNG draws, reordered appends, changed bookkeeping — shows up
    as a bitwise mismatch.
    """
    result = OptimizationResult(bo.problem.name, bo.algorithm_name)
    unit_x: list[np.ndarray] = []
    hits0, misses0 = bo.problem.cache_stats

    def evaluate_and_record(u, phase):
        evaluation = bo.problem.evaluate_unit(u)
        result.append(bo.problem.scaler.inverse_transform(u), evaluation, phase=phase)
        unit_x.append(np.asarray(u, dtype=float))

    for u in make_design(bo.initial_design, bo.n_initial, bo.problem.dim, bo.rng):
        evaluate_and_record(u, "initial")
    while result.n_evaluations < bo.max_evaluations:
        (proposal,) = Proposer(bo).propose(np.stack(unit_x), result)
        evaluate_and_record(proposal, "search")
    hits, misses = bo.problem.cache_stats
    result.cache_hits, result.cache_misses = hits - hits0, misses - misses0
    return result


class TestQ1MatchesLegacyLoop:
    def _compare(self, make_bo):
        reference = legacy_run(make_bo())
        scheduled = make_bo().run()
        np.testing.assert_array_equal(scheduled.x_matrix, reference.x_matrix)
        np.testing.assert_array_equal(scheduled.objectives, reference.objectives)
        assert [r.phase for r in scheduled.records] == [
            r.phase for r in reference.records
        ]
        assert scheduled.cache_hits == reference.cache_hits
        assert scheduled.cache_misses == reference.cache_misses

    def test_gp_surrogate_bitwise(self):
        self._compare(
            lambda: SurrogateBO(
                toy_constrained_quadratic(2), gp_factory,
                n_initial=5, max_evaluations=10, seed=11,
            )
        )

    def test_nnbo_bank_bitwise(self):
        self._compare(
            lambda: NNBO(
                toy_constrained_quadratic(2),
                n_initial=5, max_evaluations=8, surrogate=SMALL_NN, seed=3,
            )
        )


class TestCrossExecutorDeterminism:
    Q = 3

    def _run(self, executor) -> OptimizationResult:
        bo = SurrogateBO(
            make_picklable_problem(),
            gp_factory,
            n_initial=5,
            max_evaluations=13,
            scheduler_config=SchedulerConfig(q=self.Q, executor=executor),
            seed=2024,
        )
        return bo.run()

    def test_identical_batches_on_all_executors(self):
        """Same seed + same q => identical proposal batches everywhere."""
        reference = self._run("serial")
        for executor in ("thread", "process"):
            other = self._run(executor)
            np.testing.assert_array_equal(other.x_matrix, reference.x_matrix)
            assert [
                (r.iteration, r.batch_index, r.pending) for r in other.records
            ] == [
                (r.iteration, r.batch_index, r.pending) for r in reference.records
            ]

    def test_executor_instance_passthrough(self):
        evaluator = ThreadPoolEvaluator(n_workers=2)
        try:
            result = self._run(evaluator)
        finally:
            evaluator.close()
        np.testing.assert_array_equal(result.x_matrix, self._run("serial").x_matrix)


class TestBatchProvenance:
    def _result(self, q=3, budget=12):
        return SurrogateBO(
            toy_constrained_quadratic(2), gp_factory,
            n_initial=5, max_evaluations=budget,
            scheduler_config=SchedulerConfig(q=q), seed=0,
        ).run()

    def test_budget_respected_with_truncated_final_batch(self):
        """12 evals = 5 initial + batches of 3, 3, 1 — never over budget."""
        result = self._result(q=3, budget=12)
        assert result.n_evaluations == 12
        assert [len(batch) for batch in result.batches()] == [3, 3, 1]

    def test_initial_design_is_iteration_zero(self):
        result = self._result()
        initial = [r for r in result.records if r.phase == "initial"]
        assert all(r.iteration == 0 for r in initial)
        assert [r.batch_index for r in initial] == list(range(5))
        assert all(r.pending == () for r in initial)

    def test_pending_sets_are_earlier_batch_mates(self):
        result = self._result(q=3, budget=11)
        first_batch = result.batches()[0]
        base = 5  # after the initial design
        for j, record in enumerate(first_batch):
            assert record.batch_index == j
            assert record.pending == tuple(range(base, base + j))

    def test_batch_mates_are_distinct(self):
        """Fantasy updates + the duplicate filter keep batches diverse."""
        result = self._result(q=3, budget=11)
        for batch in result.batches():
            points = np.stack([r.x for r in batch])
            for a in range(len(points)):
                for b in range(a + 1, len(points)):
                    assert np.max(np.abs(points[a] - points[b])) > 1e-9

    def test_callback_fires_once_per_batch(self):
        seen = []
        SurrogateBO(
            toy_constrained_quadratic(2), gp_factory,
            n_initial=5, max_evaluations=11,
            scheduler_config=SchedulerConfig(q=3), seed=0,
            callback=lambda it, res: seen.append((it, res.n_evaluations)),
        ).run()
        assert seen == [(1, 8), (2, 11)]


class TestNNBOBatchPaths:
    def test_wei_bank_q3(self):
        nnbo = NNBO(
            toy_constrained_quadratic(2),
            n_initial=6, max_evaluations=12, surrogate=SMALL_NN,
            scheduler_config=SchedulerConfig(q=3), seed=1,
        )
        result = nnbo.run()
        assert result.n_evaluations == 12
        assert [len(batch) for batch in result.batches()] == [3, 3]

    def test_thompson_q2_uses_bank(self):
        nnbo = NNBO(
            toy_constrained_quadratic(2),
            n_initial=6, max_evaluations=10, surrogate=SMALL_NN,
            acquisition_config=AcquisitionConfig(acquisition="thompson"),
            scheduler_config=SchedulerConfig(q=2), seed=1,
        )
        assert nnbo.surrogate_factory is None
        result = nnbo.run()
        assert result.n_evaluations == 10

    def test_reproducible_q_batches(self):
        def make():
            return NNBO(
                toy_constrained_quadratic(2),
                n_initial=6, max_evaluations=12, surrogate=SMALL_NN,
                scheduler_config=SchedulerConfig(q=3), seed=7,
            )

        np.testing.assert_array_equal(make().run().x_matrix, make().run().x_matrix)


class TestExecutors:
    def test_make_evaluator_specs(self):
        assert isinstance(make_evaluator("serial"), SerialEvaluator)
        assert isinstance(make_evaluator("thread", 2), ThreadPoolEvaluator)
        assert isinstance(make_evaluator("process", 2), ProcessPoolEvaluator)
        instance = SerialEvaluator()
        assert make_evaluator(instance) is instance
        with pytest.raises(ValueError):
            make_evaluator("cluster")
        with pytest.raises(ValueError):
            make_evaluator(instance, 4)  # workers cannot override an instance
        with pytest.raises(ValueError):
            ThreadPoolEvaluator(n_workers=0)

    def test_serial_rejects_worker_count(self):
        """Regression: ``serial`` + n_workers was silently ignored."""
        with pytest.raises(ValueError, match="serial"):
            make_evaluator("serial", 8)

    def test_pool_defaults_follow_cpu_count(self, monkeypatch):
        """Regression: pools hard-coded 4 workers regardless of the host,
        then counted the host's CPUs instead of the usable ones."""
        import os

        from repro.utils import MAX_DEFAULT_WORKERS, default_pool_workers

        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            usable = os.cpu_count() or 1
        expected = max(1, min(usable, MAX_DEFAULT_WORKERS))
        assert default_pool_workers() == expected
        assert ThreadPoolEvaluator().n_workers == expected
        assert ProcessPoolEvaluator().n_workers == expected
        assert make_evaluator("thread").n_workers == expected
        assert make_evaluator("async-process").n_workers == expected
        # explicit counts are never capped or overridden
        assert make_evaluator("thread", 2 * expected).n_workers == 2 * expected
        # a one-CPU affinity mask (cpuset, taskset) wins over the host count
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_pool_workers() == 1
        assert make_evaluator("thread").n_workers == 1
        assert make_evaluator("async-process").n_workers == 1

    def test_completion_order_independence(self):
        """Results arriving out of order are committed in batch order."""
        completions = []

        class ReversedEvaluator(ThreadPoolEvaluator):
            """Earlier submissions sleep longer, so a batch lands reversed."""

            def __init__(self):
                super().__init__(n_workers=3)
                self._seq = itertools.count()

            def submit(self, problem, u):
                seq = next(self._seq)

                def run():
                    time.sleep(0.02 * max(0, 12 - seq))
                    evaluation = problem.evaluate_unit(u)
                    completions.append(seq)
                    return evaluation

                return self._ensure_pool().submit(run)

        problem = toy_constrained_quadratic(2)
        forward = SurrogateBO(
            problem, gp_factory, n_initial=5, max_evaluations=11,
            scheduler_config=SchedulerConfig(q=3), seed=4,
        ).run()
        with ReversedEvaluator() as evaluator:
            reversed_run = SurrogateBO(
                toy_constrained_quadratic(2), gp_factory, n_initial=5,
                max_evaluations=11,
                scheduler_config=SchedulerConfig(q=3, executor=evaluator),
                seed=4,
            ).run()
        assert completions != sorted(completions)  # genuinely out of order
        np.testing.assert_array_equal(reversed_run.x_matrix, forward.x_matrix)
        assert [(r.iteration, r.batch_index) for r in reversed_run.records] == [
            (r.iteration, r.batch_index) for r in forward.records
        ]

    def test_process_pool_falls_back_on_unpicklable_problem(self):
        """The in-process fallback is per problem, not per executor."""
        problem = toy_constrained_quadratic(2)  # closures: not picklable
        picklable = make_picklable_problem()
        batch = [np.full(2, 0.25), np.full(2, 0.75)]
        evaluator = ProcessPoolEvaluator(n_workers=2)
        try:
            with pytest.warns(UserWarning, match="not picklable") as caught:
                futures = [evaluator.submit(problem, u) for u in batch]
            assert len(caught) == 1  # checked once per problem
            assert evaluator._pool is None and all(f.done() for f in futures)
            results = [
                evaluator.collect(problem, u, f) for u, f in zip(batch, futures)
            ]
            # a picklable problem still goes to the workers
            u = np.full(2, 0.5)
            evaluation = evaluator.collect(
                picklable, u, evaluator.submit(picklable, u)
            )
            assert evaluator._pool is not None
        finally:
            evaluator.close()
        assert [r.objective for r in results] == [
            problem.evaluate_unit(u).objective for u in batch
        ]
        assert evaluation.objective == _quadratic_objective(np.full(2, 0.5))
        assert picklable.cache_stats == (0, 1)

    def test_process_pool_syncs_parent_cache(self):
        problem = make_picklable_problem()
        evaluator = ProcessPoolEvaluator(n_workers=2)

        def run_batch(batch):
            futures = [evaluator.submit(problem, u) for u in batch]
            return [evaluator.collect(problem, u, f) for u, f in zip(batch, futures)]

        try:
            batch = [np.full(2, 0.2), np.full(2, 0.8)]
            run_batch(batch)
            assert problem.cache_stats == (0, 2)
            # second pass: answered from the parent cache, no dispatch
            run_batch(batch)
            assert problem.cache_stats == (2, 2)
        finally:
            evaluator.close()
