"""Tests for the asynchronous (refill-on-completion) BO loop.

``SurrogateBO.run`` drives every ``async-*`` executor through a
single-tenant evaluation farm (:mod:`repro.farm`).  Determinism contracts
pinned here:

* ``executor="async-*"`` with ``n_eval_workers=1`` reproduces the serial
  ``q=1`` loop bitwise (same proposals, same history, same regret trace);
* under a deterministic :class:`FakeClock` the commit order is a pure
  function of the seed, so async-thread and async-process runs — and
  repeated runs of either — are bitwise identical (the seeded-replay
  contract: same seed + same completion order ⇒ identical trace);
* budget accounting is exact (committed evaluations == budget, never
  over-submitted), and the proposal ledger's provenance is consistent.

Plus the exception-safety contract: a poisoned objective aborts the run
without orphaning pool workers or corrupting history ordering.
"""

import itertools
import time

import numpy as np
import pytest

from repro.bo.config import (
    EXECUTOR_SPECS,
    AcquisitionConfig,
    SchedulerConfig,
    SurrogateConfig,
)
from repro.bo.history import OptimizationResult
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.problem import FunctionProblem
from repro.bo.scheduler import (
    FakeClock,
    ProcessPoolEvaluator,
    ThreadPoolEvaluator,
    make_evaluator,
)
from repro.benchfns import toy_constrained_quadratic
from repro.bo.study import Study
from repro.farm import EvaluationFarm, FarmStudyDriver

# shared with the synchronous scheduler suite: same GP factory, same
# picklable problem (module-level callables pickle into pool workers)
from test_scheduler import gp_factory, make_picklable_problem

#: a small NN-GP ensemble that keeps the NNBO pins fast
SMALL_NN = SurrogateConfig(
    n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20
)


def _poison_objective(x):
    if x[0] > 0.75:
        raise RuntimeError("simulator diverged")
    time.sleep(0.05)
    return float(np.sum(x**2))


def make_poisoned_problem(dim: int = 2) -> FunctionProblem:
    return FunctionProblem(
        "poisoned", np.zeros(dim), np.ones(dim), objective=_poison_objective
    )


def make_late_poisoned_problem(healthy: int, dim: int = 2) -> FunctionProblem:
    """Simulations after the first ``healthy`` raise (thread pools only)."""
    calls = itertools.count()

    def objective(x):
        if next(calls) >= healthy:
            raise RuntimeError("simulator diverged")
        time.sleep(0.05)
        return float(np.sum(x**2))

    return FunctionProblem(
        "late_poisoned", np.zeros(dim), np.ones(dim), objective=objective
    )


class TestAsyncSingleWorkerMatchesSerial:
    """async-* with one worker degrades to the serial q=1 loop exactly."""

    def _pair(self, make_bo):
        serial = make_bo(SchedulerConfig(executor="serial")).run()
        asynchronous = make_bo(
            SchedulerConfig(executor="async-thread", n_eval_workers=1)
        ).run()
        return serial, asynchronous

    def test_gp_surrogate_bitwise(self):
        def make(scheduler):
            return SurrogateBO(
                toy_constrained_quadratic(2), gp_factory,
                n_initial=5, max_evaluations=10,
                scheduler_config=scheduler, seed=11,
            )

        serial, asynchronous = self._pair(make)
        np.testing.assert_array_equal(asynchronous.x_matrix, serial.x_matrix)
        np.testing.assert_array_equal(asynchronous.objectives, serial.objectives)
        # the regret (running-best) trace is therefore identical too
        np.testing.assert_array_equal(
            asynchronous.best_so_far(), serial.best_so_far()
        )
        assert asynchronous.cache_misses == serial.cache_misses

    def test_nnbo_bank_bitwise(self):
        def make(scheduler):
            return NNBO(
                toy_constrained_quadratic(2),
                n_initial=5, max_evaluations=8, surrogate=SMALL_NN,
                scheduler_config=scheduler, seed=3,
            )

        serial, asynchronous = self._pair(make)
        np.testing.assert_array_equal(asynchronous.x_matrix, serial.x_matrix)
        np.testing.assert_array_equal(
            asynchronous.best_so_far(), serial.best_so_far()
        )


class TestFakeClockReplay:
    """Same seed + same (virtual) completion order => identical trace."""

    WORKERS = 3
    BUDGET = 13

    def _run(self, executor) -> OptimizationResult:
        return SurrogateBO(
            make_picklable_problem(),
            gp_factory,
            n_initial=5,
            max_evaluations=self.BUDGET,
            scheduler_config=SchedulerConfig(
                executor=executor,
                n_eval_workers=self.WORKERS,
                clock=FakeClock(),
            ),
            seed=2024,
        ).run()

    def test_bitwise_across_async_executors(self):
        reference = self._run("async-thread")
        other = self._run("async-process")
        np.testing.assert_array_equal(other.x_matrix, reference.x_matrix)
        np.testing.assert_array_equal(other.objectives, reference.objectives)
        assert other.ledger.completion_order == reference.ledger.completion_order
        assert [
            (r.proposal_id, r.pending_at_proposal) for r in other.records
        ] == [
            (r.proposal_id, r.pending_at_proposal) for r in reference.records
        ]

    def test_replay_is_bitwise_stable(self):
        first = self._run("async-thread")
        second = self._run("async-thread")
        np.testing.assert_array_equal(second.x_matrix, first.x_matrix)
        assert second.ledger.completion_order == first.ledger.completion_order

    def test_commit_order_actually_interleaves(self):
        """The fake clock must exercise genuine out-of-order commits."""
        result = self._run("async-thread")
        order = result.ledger.completion_order
        assert order != sorted(order)


class TestAsyncBudgetAndLedger:
    def _run(self) -> OptimizationResult:
        return SurrogateBO(
            toy_constrained_quadratic(2),
            gp_factory,
            n_initial=5,
            max_evaluations=14,
            scheduler_config=SchedulerConfig(
                executor="async-thread", n_eval_workers=3, clock=FakeClock()
            ),
            seed=5,
        ).run()

    def test_exact_budget(self):
        result = self._run()
        assert result.n_evaluations == 14
        search = [r for r in result.records if r.phase == "search"]
        assert len(search) == 14 - 5

    def test_ledger_provenance_consistent(self):
        result = self._run()
        ledger = result.ledger
        search = [r for r in result.records if r.phase == "search"]
        # every search record maps to exactly one ledger entry
        assert sorted(r.proposal_id for r in search) == list(range(len(ledger)))
        for record in search:
            entry = ledger.entry(record.proposal_id)
            assert entry.record_index == record.index
            assert entry.pending_at_proposal == record.pending_at_proposal
            # pending designs cannot outnumber the other workers
            assert len(entry.pending_at_proposal) <= 3 - 1 + 2  # top-up transient
            for pid in entry.pending_at_proposal:
                pending_entry = ledger.entry(pid)
                # a pending proposal was submitted earlier ...
                assert pending_entry.proposal_id < entry.proposal_id
                # ... and landed only after this one was submitted
                assert pending_entry.committed_at is None or (
                    pending_entry.committed_at > entry.n_landed_at_submit
                )

    def test_in_flight_bounded_by_workers(self):
        result = self._run()
        for record in result.records:
            if record.phase == "search":
                assert len(record.pending_at_proposal) <= 2  # n_workers - 1

    def test_callback_fires_per_landing(self):
        seen = []
        SurrogateBO(
            toy_constrained_quadratic(2), gp_factory,
            n_initial=5, max_evaluations=11,
            scheduler_config=SchedulerConfig(
                executor="async-thread", n_eval_workers=2, clock=FakeClock()
            ),
            seed=5,
            callback=lambda landing, res: seen.append(landing),
        ).run()
        assert seen == list(range(1, 7))


class TestAsyncRefitPolicies:
    def _make_nnbo(self, acquisition=None, **scheduler):
        return NNBO(
            toy_constrained_quadratic(2),
            n_initial=6, max_evaluations=14, surrogate=SMALL_NN,
            acquisition_config=acquisition,
            scheduler_config=SchedulerConfig(
                executor="async-thread", n_eval_workers=2, clock=FakeClock(),
                **scheduler,
            ),
            seed=1,
        )

    def test_fantasy_only_runs_to_budget(self):
        result = self._make_nnbo(
            async_refit="fantasy-only", async_full_refit_every=3
        ).run()
        assert result.n_evaluations == 14

    def test_fantasy_only_is_deterministic(self):
        def make():
            return self._make_nnbo(
                async_refit="fantasy-only", async_full_refit_every=3
            )

        np.testing.assert_array_equal(make().run().x_matrix, make().run().x_matrix)

    def test_fantasy_only_requires_bank(self):
        """Rejected at construction on every entry point: the async and
        sync closed loops and a standalone study."""
        for executor in ("async-thread", "serial"):
            with pytest.raises(ValueError, match="fantasy-only"):
                SurrogateBO(
                    toy_constrained_quadratic(2), gp_factory,
                    n_initial=5, max_evaluations=8,
                    scheduler_config=SchedulerConfig(
                        executor=executor, async_refit="fantasy-only",
                    ),
                    seed=0,
                )
        with pytest.raises(ValueError, match="fantasy-only"):
            Study(
                toy_constrained_quadratic(2),
                surrogate_factory=gp_factory,
                n_initial=5, max_evaluations=8,
                scheduler=SchedulerConfig(async_refit="fantasy-only"),
                seed=0,
            )

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="async_refit"):
            SurrogateBO(
                toy_constrained_quadratic(2), gp_factory,
                n_initial=5, max_evaluations=8,
                scheduler_config=SchedulerConfig(async_refit="lazy"),
            )
        with pytest.raises(ValueError, match="async_full_refit_every"):
            SurrogateBO(
                toy_constrained_quadratic(2), gp_factory,
                n_initial=5, max_evaluations=8,
                scheduler_config=SchedulerConfig(async_full_refit_every=0),
            )

    def test_thompson_async(self):
        result = self._make_nnbo(
            AcquisitionConfig(acquisition="thompson"), q=2
        ).run()
        assert result.n_evaluations == 14


class TestAsyncExecutorSpecs:
    def test_make_evaluator_async_specs(self):
        """The async-* specs build the plain pools; only they are async."""
        assert type(make_evaluator("async-thread", 2)) is ThreadPoolEvaluator
        assert type(make_evaluator("async-process", 2)) is ProcessPoolEvaluator
        for spec in EXECUTOR_SPECS:
            config = SchedulerConfig(executor=spec)
            assert config.is_async == spec.startswith("async-")
        assert not SchedulerConfig(executor=ThreadPoolEvaluator(2)).is_async

    def test_async_instance_passthrough(self):
        """A caller-owned pool refills through FarmStudyDriver."""
        evaluator = ThreadPoolEvaluator(n_workers=2)
        study = Study(
            toy_constrained_quadratic(2), surrogate_factory=gp_factory,
            n_initial=5, max_evaluations=9, seed=3,
        )
        clock = FakeClock()
        try:
            with EvaluationFarm(evaluator, clock=clock) as farm:
                tenant = farm.register("toy", problem=study.problem)
                result = FarmStudyDriver(farm, clock=clock).run(
                    study, tenant, target=evaluator.n_workers
                )
            # the farm closed; the caller's pool stays open and serves
            future = evaluator.submit(study.problem, np.array([0.5, 0.5]))
            assert future.result(timeout=10.0).objective is not None
        finally:
            evaluator.close()
        assert result.n_evaluations == 9
        # the refill conditioned proposals on the other in-flight design,
        # and the in-flight target came from the instance's worker count
        pending = [len(r.pending_at_proposal) for r in result.records]
        assert max(pending) == 1


class TestPoisonedEvaluations:
    """A raising objective must not orphan workers or corrupt ordering."""

    def test_async_run_propagates_and_cancels(self):
        evaluator = ThreadPoolEvaluator(n_workers=2)
        study = Study(
            make_late_poisoned_problem(healthy=8), surrogate_factory=gp_factory,
            n_initial=4, max_evaluations=20, seed=0,
        )
        start = time.perf_counter()
        try:
            with EvaluationFarm(evaluator) as farm:
                tenant = farm.register("poisoned", problem=study.problem)
                with pytest.raises(RuntimeError, match="simulator diverged"):
                    FarmStudyDriver(farm).run(study, tenant, target=2)
            # caller-owned: closing the farm leaves the pool open
            assert evaluator._pool is not None
        finally:
            evaluator.close()
        # prompt shutdown: cancelled pending work, no multi-second drain
        assert time.perf_counter() - start < 30.0
        assert evaluator._pool is None
        # the poison struck mid-refill, after proposals conditioned on
        # in-flight designs
        assert any(e.pending_at_proposal for e in study.ledger.entries)
        assert study.result.n_evaluations < 20

    def test_batch_scheduler_prefix_ordering_preserved(self):
        """Trials told before the poison stay a clean batch-order prefix."""
        study = Study(
            make_poisoned_problem(), surrogate_factory=gp_factory,
            n_initial=4, max_evaluations=8, seed=5,
            scheduler=SchedulerConfig(executor="process", n_eval_workers=2),
        )
        # a 4-point LHS puts exactly one design in the x0 > 0.75 stratum;
        # seed 5 places that poisoned design second in the batch
        trials = study.start_initial()
        assert [t.x[0] > 0.75 for t in trials] == [False, True, False, False]
        with pytest.raises(RuntimeError, match="simulator diverged"):
            study.optimizer.run_study(study)  # the body of SurrogateBO.run
        # whatever landed before the failure is a contiguous batch prefix
        records = study.result.records
        assert [r.batch_index for r in records] == list(range(len(records)))
        assert len(records) <= 1  # the poisoned trial never commits

    def test_pool_usable_after_poisoned_batch(self):
        """The executor recovers: close + fresh submit works."""
        problem = make_poisoned_problem()
        with ProcessPoolEvaluator(n_workers=2) as evaluator:
            batch = [np.array([0.9, 0.9]), np.array([0.1, 0.1])]
            futures = [evaluator.submit(problem, u) for u in batch]
            with pytest.raises(RuntimeError):
                for u, future in zip(batch, futures):
                    evaluator.collect(problem, u, future)
            evaluator.close()
            u = np.array([0.2, 0.2])
            evaluation = evaluator.collect(problem, u, evaluator.submit(problem, u))
        assert evaluation.objective == pytest.approx(0.08)
        assert evaluator._pool is None


class TestAsyncSchedulerUnit:
    """Refill-loop saturation (read off the ledger) and the fake clock."""

    def test_refill_keeps_pool_saturated(self):
        result = SurrogateBO(
            make_picklable_problem(),
            gp_factory,
            n_initial=4,
            max_evaluations=10,
            scheduler_config=SchedulerConfig(
                executor="async-thread", n_eval_workers=3, clock=FakeClock()
            ),
            seed=0,
        ).run()
        assert result.n_evaluations == 10
        observed_pending = [
            len(entry.pending_at_proposal) for entry in result.ledger.entries
        ]
        assert len(observed_pending) == 10 - 4
        # steady state proposes against a full complement of pending designs
        assert max(observed_pending) == 2
        assert observed_pending[0] == 0  # first top-up starts empty

    def test_fake_clock_default_durations_deterministic(self):
        clock = FakeClock(base=0.5, spread=2.0)
        u = np.array([0.25, 0.75])
        assert clock.duration(u) == clock.duration(u.copy())
        assert 0.5 <= clock.duration(u) <= 2.5
        custom = FakeClock(duration_fn=lambda u: 42.0)
        assert custom.duration(u) == 42.0
