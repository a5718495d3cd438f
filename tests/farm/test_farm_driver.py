"""Determinism and control-policy tests for :class:`FarmStudyDriver`.

The two headline pins:

* under a :class:`~repro.bo.scheduler.FakeClock`, a speculation-off,
  fixed-target run — the route every ``async-*`` executor takes — is
  **bitwise identical** to a plain ask/tell replay of the same completion
  rule (``farm_helpers.replay_study``): same designs, same commit order,
  same provenance;
* with elastic sizing, adaptive q and speculation all enabled, the
  trace is still a pure function of the seed: async-thread and
  async-process runs match bitwise, and replays are stable.
"""

import numpy as np

from repro.bo.config import (
    FarmConfig,
    SchedulerConfig,
    SpeculationConfig,
    SurrogateConfig,
)
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.scheduler import FakeClock
from repro.bo.study import Study
from repro.farm import EvaluationFarm, FarmStudyDriver
from farm_helpers import (
    gp_factory,
    make_picklable_problem,
    make_second_problem,
    replay_study,
)

WORKERS = 3
BUDGET = 13


def run_loop(
    executor="async-thread",
    farm=None,
    speculation=None,
    seed=2024,
    budget=BUDGET,
):
    config = SchedulerConfig(
        executor=executor,
        n_eval_workers=WORKERS,
        clock=FakeClock(),
        farm=farm,
        speculation=speculation,
    )
    return SurrogateBO(
        make_picklable_problem(),
        gp_factory,
        n_initial=5,
        max_evaluations=budget,
        scheduler_config=config,
        seed=seed,
    ).run()


def assert_same_trace(result, reference):
    """Designs, objectives, completion order and per-record provenance."""
    np.testing.assert_array_equal(result.x_matrix, reference.x_matrix)
    np.testing.assert_array_equal(result.objectives, reference.objectives)
    assert result.ledger.completion_order == reference.ledger.completion_order
    assert [(r.proposal_id, r.pending_at_proposal) for r in result.records] == [
        (r.proposal_id, r.pending_at_proposal) for r in reference.records
    ]
    assert [e.virtual_ready for e in result.ledger.entries] == [
        e.virtual_ready for e in reference.ledger.entries
    ]


class TestSpeculationOffParity:
    """The acceptance pin: farm(default) == ask/tell replay, bitwise."""

    def test_bitwise_vs_ask_tell_replay(self):
        study = Study(
            make_picklable_problem(),
            surrogate_factory=gp_factory,
            n_initial=5,
            max_evaluations=BUDGET,
            scheduler=SchedulerConfig(
                executor="async-thread", n_eval_workers=WORKERS, clock=FakeClock()
            ),
            seed=2024,
        )
        reference = replay_study(study, FakeClock(), WORKERS)
        # farm=None is the default route of every async run; an explicit
        # default FarmConfig is the same driver
        assert_same_trace(run_loop(farm=None), reference)
        assert_same_trace(run_loop(farm=FarmConfig()), reference)

    def test_nnbo_fantasy_only_bitwise_vs_ask_tell_replay(self):
        surrogate = SurrogateConfig(
            n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20
        )
        scheduler = SchedulerConfig(
            executor="async-thread",
            n_eval_workers=WORKERS,
            async_refit="fantasy-only",
            async_full_refit_every=3,
            clock=FakeClock(),
        )
        farmed = NNBO(
            make_picklable_problem(),
            n_initial=6,
            max_evaluations=14,
            surrogate=surrogate,
            scheduler_config=scheduler,
            seed=1,
        ).run()
        study = Study(
            make_picklable_problem(),
            n_initial=6,
            max_evaluations=14,
            surrogate=surrogate,
            scheduler=scheduler,
            seed=1,
        )
        assert_same_trace(farmed, replay_study(study, FakeClock(), WORKERS))

    def test_commit_order_actually_interleaves(self):
        order = run_loop(farm=FarmConfig()).ledger.completion_order
        assert order != sorted(order)


class TestFullPolicyDeterminism:
    def _run(self, executor):
        return run_loop(
            executor=executor,
            farm=FarmConfig(
                mode="elastic",
                min_in_flight=1,
                max_in_flight=5,
                propose_cost_s=0.5,
                adaptive_q=True,
            ),
            speculation=SpeculationConfig(max_speculative=2, max_age_landings=3),
            seed=7,
            budget=16,
        )

    def test_thread_vs_process_bitwise(self):
        thread = self._run("async-thread")
        process = self._run("async-process")
        np.testing.assert_array_equal(process.x_matrix, thread.x_matrix)
        np.testing.assert_array_equal(process.objectives, thread.objectives)
        assert (
            process.ledger.completion_order == thread.ledger.completion_order
        )

    def test_replay_is_bitwise_stable(self):
        first = self._run("async-thread")
        second = self._run("async-thread")
        np.testing.assert_array_equal(second.x_matrix, first.x_matrix)
        assert second.ledger.completion_order == first.ledger.completion_order

    def test_exact_budget_and_speculative_provenance(self):
        result = self._run("async-thread")
        assert result.n_evaluations == 16
        entries = result.ledger.entries
        # speculation actually engaged, and its provenance survives: some
        # speculative proposals landed (promoted or completed on their
        # own), and abandoned ones are retracted without ever committing
        landed = [e for e in entries if e.speculative and e.committed_at is not None]
        abandoned = [e for e in entries if e.speculative and e.retracted]
        assert landed, "no speculative proposal ever landed"
        assert all(e.committed_at is None for e in abandoned)


class TestSpeculationLifecycle:
    def test_abandonment_frees_budget(self):
        """Aged-out speculation retracts; the budget still lands exactly."""
        result = run_loop(
            farm=FarmConfig(),
            speculation=SpeculationConfig(max_speculative=2, max_age_landings=1),
            budget=12,
        )
        assert result.n_evaluations == 12
        retracted = [e for e in result.ledger.entries if e.retracted]
        assert retracted, "max_age_landings=1 should abandon some speculation"
        assert all(e.speculative for e in retracted)

    def test_speculation_requires_farm(self):
        import pytest

        with pytest.raises(ValueError, match="farm"):
            SchedulerConfig(
                executor="async-thread",
                speculation=SpeculationConfig(),
            )


class TestElasticSizing:
    def test_elastic_run_lands_full_budget(self):
        result = run_loop(
            farm=FarmConfig(
                mode="elastic",
                min_in_flight=1,
                max_in_flight=WORKERS,
                propose_cost_s=0.2,
            ),
            budget=14,
        )
        assert result.n_evaluations == 14

    def test_sync_executor_rejects_farm(self):
        import pytest

        config = SchedulerConfig(executor="thread", farm=FarmConfig())
        bo = SurrogateBO(
            make_picklable_problem(),
            gp_factory,
            n_initial=4,
            max_evaluations=8,
            scheduler_config=config,
            seed=1,
        )
        with pytest.raises(ValueError, match="asynchronous"):
            bo.run()


class TestMultiStudy:
    def test_two_tenants_share_one_farm_deterministically(self):
        """run_studies drives both studies to budget; replays are bitwise."""

        def run_pair():
            from repro.bo.study import Study

            clock = FakeClock()
            studies = [
                Study(
                    make_picklable_problem(),
                    surrogate_factory=gp_factory,
                    n_initial=4,
                    max_evaluations=9,
                    seed=11,
                ),
                Study(
                    make_second_problem(),
                    surrogate_factory=gp_factory,
                    n_initial=4,
                    max_evaluations=9,
                    seed=12,
                ),
            ]
            with EvaluationFarm(
                "async-thread", n_workers=4, clock=clock
            ) as farm:
                from repro.farm import FarmJob

                jobs = [
                    FarmJob(
                        study=study,
                        tenant=farm.register(
                            study.problem.name, problem=study.problem
                        ),
                        target=2,
                    )
                    for study in studies
                ]
                driver = FarmStudyDriver(farm, clock=clock)
                return driver.run_studies(jobs)

        first = run_pair()
        second = run_pair()
        for a, b in zip(first, second):
            assert a.n_evaluations == 9
            np.testing.assert_array_equal(a.x_matrix, b.x_matrix)
            np.testing.assert_array_equal(a.objectives, b.objectives)
        # distinct problems genuinely produced distinct traces
        assert first[0].x_matrix.shape == first[1].x_matrix.shape
        assert not np.array_equal(first[0].x_matrix, first[1].x_matrix)
