"""Tests for the ask/tell Study core.

Contracts pinned here:

* driving a :class:`Study` manually (serial, q=1) reproduces the closed
  ``SurrogateBO.run()`` loop bitwise (which the scheduler suites in turn
  pin against the pre-refactor legacy loop — transitivity covers the
  PR-2/3/4 traces);
* manual q-point batch driving matches the synchronous driver bitwise;
* ask/tell protocol errors: unknown ids, double tells, budget
  exhaustion, batch asks with a dirty pending set;
* non-finite objectives flow through ``tell`` (failed simulations are
  data, sanitized at fit time);
* ``checkpoint()`` + ``resume()`` — including mid-async-flight under a
  :class:`FakeClock` — continue on the exact trace of the uninterrupted
  run.
"""

import json
import warnings

import numpy as np
import pytest

from repro.bo.config import SchedulerConfig
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.problem import Evaluation
from repro.bo.scheduler import FakeClock
from repro.bo.study import (
    BudgetExhausted,
    CheckpointMismatch,
    Study,
    StudyError,
    UnknownTrial,
)
from repro.benchfns import toy_constrained_quadratic

# shared helpers: the GP factory and the picklable problem
from test_scheduler import gp_factory, make_picklable_problem


def make_study(**overrides):
    defaults = dict(
        surrogate_factory=gp_factory,
        n_initial=5,
        max_evaluations=10,
        seed=11,
    )
    defaults.update(overrides)
    problem = defaults.pop("problem", None) or toy_constrained_quadratic(2)
    return Study(problem, **defaults)


def drive_serially(study: Study) -> Study:
    """Evaluate every trial immediately (the manual serial q=1 loop)."""
    for trial in study.start_initial():
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    while not study.done:
        trial = study.ask()[0]
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    return study


class TestManualDrivingMatchesRun:
    def test_serial_q1_gp_bitwise(self):
        reference = SurrogateBO(
            toy_constrained_quadratic(2),
            gp_factory,
            n_initial=5,
            max_evaluations=10,
            seed=11,
        ).run()
        study = drive_serially(make_study())
        np.testing.assert_array_equal(study.result.x_matrix, reference.x_matrix)
        np.testing.assert_array_equal(study.result.objectives, reference.objectives)
        assert [r.phase for r in study.result.records] == [
            r.phase for r in reference.records
        ]
        assert [r.iteration for r in study.result.records] == [
            r.iteration for r in reference.records
        ]

    def test_serial_q1_nnbo_bank_bitwise(self):
        def nnbo_kwargs():
            return dict(
                n_initial=5,
                max_evaluations=8,
                seed=3,
            )

        reference = NNBO(
            toy_constrained_quadratic(2),
            surrogate=_tiny_surrogate(),
            **nnbo_kwargs(),
        ).run()
        study = Study(
            toy_constrained_quadratic(2),
            surrogate=_tiny_surrogate(),
            **nnbo_kwargs(),
        )
        drive_serially(study)
        np.testing.assert_array_equal(study.result.x_matrix, reference.x_matrix)
        np.testing.assert_array_equal(study.result.objectives, reference.objectives)

    def test_manual_batch_matches_sync_driver(self):
        reference = SurrogateBO(
            toy_constrained_quadratic(2),
            gp_factory,
            n_initial=5,
            max_evaluations=12,
            scheduler_config=SchedulerConfig(q=3),
            seed=0,
        ).run()
        study = make_study(
            max_evaluations=12, scheduler=SchedulerConfig(q=3), seed=0
        )
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        while not study.done:
            trials = study.ask(min(3, study.remaining_capacity))
            for trial in trials:
                study.tell(trial, study.problem.evaluate_unit(trial.u))
        np.testing.assert_array_equal(study.result.x_matrix, reference.x_matrix)
        assert [
            (r.iteration, r.batch_index, r.pending)
            for r in study.result.records
        ] == [
            (r.iteration, r.batch_index, r.pending) for r in reference.records
        ]

    def test_run_study_completes_pending_trials_sync(self):
        """Regression: the sync driver must evaluate a resumed study's
        in-flight trials instead of under-running the budget (q=1) or
        tripping the batch ask's clean-pending-set check (q>1)."""
        study = make_study(max_evaluations=6)
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        study.ask(1)  # the last budget slot, left in flight
        result = study.optimizer.run_study(study)
        assert result.n_evaluations == 6
        assert study.n_pending == 0 and study.done

        batched = make_study(
            max_evaluations=12, scheduler=SchedulerConfig(q=3), seed=4
        )
        for trial in batched.start_initial():
            batched.tell(trial, batched.problem.evaluate_unit(trial.u))
        batched.ask(1)  # dirty pending set ahead of the q=3 driver loop
        result = batched.optimizer.run_study(batched)
        assert result.n_evaluations == 12 and batched.n_pending == 0

    def test_surrogate_config_path_forwards_design_and_name(self):
        """Regression: initial_design/name were dropped on the NNBO path."""
        study = Study(
            toy_constrained_quadratic(2),
            surrogate=_tiny_surrogate(),
            initial_design="sobol",
            name="custom-run",
            n_initial=4,
            max_evaluations=6,
            seed=0,
        )
        assert study.optimizer.initial_design == "sobol"
        assert study.optimizer.algorithm_name == "custom-run"
        assert study.result.algorithm == "custom-run"

    def test_run_study_on_resumable_study(self):
        """run_study drives a fresh study identically to run()."""
        reference = SurrogateBO(
            toy_constrained_quadratic(2),
            gp_factory,
            n_initial=5,
            max_evaluations=10,
            seed=11,
        ).run()
        study = make_study()
        result = study.optimizer.run_study(study)
        np.testing.assert_array_equal(result.x_matrix, reference.x_matrix)


class TestAskTellProtocol:
    def test_initial_trials_come_first(self):
        study = make_study()
        trials = study.ask(3)
        assert [t.phase for t in trials] == ["initial"] * 3
        assert [t.batch_index for t in trials] == [0, 1, 2]
        assert study.initial_remaining == 2

    def test_search_ask_requires_initial_complete(self):
        study = make_study()
        study.ask(5)  # whole initial design now pending
        with pytest.raises(StudyError, match="initial design incomplete"):
            study.ask(1)

    def test_tell_unknown_trial_id(self):
        study = make_study()
        study.start_initial()
        with pytest.raises(StudyError, match="unknown trial id 99"):
            study.tell(99, Evaluation(1.0, np.array([-1.0])))

    def test_tell_twice_rejected(self):
        study = make_study()
        trial = study.ask(1)[0]
        study.tell(trial, study.problem.evaluate_unit(trial.u))
        with pytest.raises(StudyError, match="already told"):
            study.tell(trial, study.problem.evaluate_unit(trial.u))

    def test_ask_past_budget_raises(self):
        study = drive_serially(make_study())
        assert study.done
        with pytest.raises(BudgetExhausted, match="max_evaluations=10"):
            study.ask()

    def test_ask_counts_pending_against_budget(self):
        study = make_study(max_evaluations=6)
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        study.ask(1)  # the last budget slot, now pending
        with pytest.raises(BudgetExhausted, match="1 pending"):
            study.ask(1)

    def test_batch_ask_over_capacity_raises(self):
        study = make_study(max_evaluations=7)
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        with pytest.raises(BudgetExhausted, match="asked for 3"):
            study.ask(3)

    def test_batch_ask_with_pending_rejected(self):
        study = make_study(max_evaluations=12)
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        study.ask(1)
        with pytest.raises(StudyError, match="empty pending set"):
            study.ask(2)

    def test_tell_non_finite_objective_is_absorbed(self):
        study = make_study()
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        trial = study.ask(1)[0]
        study.tell(trial, Evaluation(np.nan, np.array([-1.0])))
        # the optimizer keeps proposing: sanitization handles the NaN
        nxt = study.ask(1)[0]
        assert nxt.u.shape == (2,)
        study.tell(nxt, Evaluation(np.inf, np.array([0.5])))
        assert study.result.n_evaluations == 7

    def test_tell_wrong_constraint_count(self):
        study = make_study()
        trial = study.ask(1)[0]
        with pytest.raises(StudyError, match="1"):
            study.tell(trial, Evaluation(1.0, np.array([-1.0, -2.0])))

    def test_tell_bare_objective_requires_unconstrained(self):
        study = make_study()
        trial = study.ask(1)[0]
        with pytest.raises(StudyError, match="bare objective"):
            study.tell(trial, 1.5)

    def test_best_tracks_feasible_incumbent(self):
        study = drive_serially(make_study())
        best = study.best()
        assert best is not None
        assert best.evaluation.objective == study.result.best_objective()

    def test_streaming_tell_order_is_commit_order(self):
        """Telling out of ask order commits in tell order (async contract)."""
        study = make_study(
            max_evaluations=9,
            scheduler=SchedulerConfig(executor="async-thread", n_eval_workers=2),
        )
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        first = study.ask(1)[0]
        second = study.ask(1)[0]
        assert second.pending_at_proposal == (first.proposal_id,)
        study.tell(second, study.problem.evaluate_unit(second.u))
        study.tell(first, study.problem.evaluate_unit(first.u))
        search = [r for r in study.result.records if r.phase == "search"]
        assert [r.proposal_id for r in search] == [
            second.proposal_id,
            first.proposal_id,
        ]
        assert study.ledger.completion_order == [
            second.proposal_id,
            first.proposal_id,
        ]


CHECKPOINT_TRIAL_KEYS = [
    "id",
    "u",
    "phase",
    "batch_index",
    "iteration",
    "pending",
    "proposal_id",
    "pending_at_proposal",
    "speculative",
]
LEDGER_ENTRY_KEYS = [
    "proposal_id",
    "u",
    "pending_at_proposal",
    "n_landed_at_submit",
    "virtual_ready",
    "committed_at",
    "record_index",
    "strategy",
    "retracted",
    "speculative",
]


class TestCheckpointResume:
    def _drive(self, study, until=None):
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        while not study.done:
            if until is not None and study.result.n_evaluations >= until:
                return study
            trial = study.ask()[0]
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        return study

    def test_serial_resume_matches_uninterrupted(self, tmp_path):
        uninterrupted = drive_serially(make_study())
        half = self._drive(make_study(), until=7)
        path = half.checkpoint(tmp_path / "study.json")
        resumed = Study.resume(
            path, toy_constrained_quadratic(2), surrogate_factory=gp_factory
        )
        assert resumed.result.n_evaluations == 7
        self._drive(resumed)
        np.testing.assert_array_equal(
            resumed.result.x_matrix, uninterrupted.result.x_matrix
        )
        np.testing.assert_array_equal(
            resumed.result.objectives, uninterrupted.result.objectives
        )

    def test_checkpoint_trial_and_ledger_entry_keys(self, tmp_path):
        """The checkpoint form of trials and ledger entries, in order."""
        study = make_study(n_initial=3, max_evaluations=8)
        study.ask(2)
        path = tmp_path / "study.json"
        payload = json.loads(study.checkpoint(path).read_text())
        assert [list(t) for t in payload["pending"]] == [CHECKPOINT_TRIAL_KEYS] * 2
        assert [list(t) for t in payload["initial_queue"]] == [CHECKPOINT_TRIAL_KEYS]
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        landed, dropped = study.ask()[0], study.ask()[0]
        study.retract(dropped)
        study.tell(landed, study.problem.evaluate_unit(landed.u))
        (pending,) = study.ask()
        payload = json.loads(study.checkpoint(path).read_text())
        assert payload["initial_queue"] == []
        (trial,) = payload["pending"]
        assert list(trial) == CHECKPOINT_TRIAL_KEYS
        assert trial["pending_at_proposal"] == list(pending.pending_at_proposal)
        entries = payload["result"]["ledger"]["entries"]
        assert [list(e) for e in entries] == [LEDGER_ENTRY_KEYS] * 3
        assert [(e["committed_at"], e["retracted"]) for e in entries] == [
            (1, False),
            (None, True),
            (None, False),
        ]

    def test_resume_validates_problem_and_kwargs(self, tmp_path):
        study = self._drive(make_study(), until=6)
        path = study.checkpoint(tmp_path / "study.json")
        with pytest.raises(StudyError, match="picklable_quadratic"):
            Study.resume(
                path, make_picklable_problem(), surrogate_factory=gp_factory
            )
        with pytest.raises(StudyError, match="max_evaluations"):
            Study.resume(
                path,
                toy_constrained_quadratic(2),
                surrogate_factory=gp_factory,
                max_evaluations=20,
            )
        with pytest.raises(StudyError, match="not a study checkpoint"):
            bogus = tmp_path / "bogus.json"
            bogus.write_text('{"format": "something-else"}')
            Study.resume(
                bogus, toy_constrained_quadratic(2), surrogate_factory=gp_factory
            )

    def test_async_mid_flight_resume_matches_uninterrupted(self, tmp_path):
        """Kill an async run at a landing; the resumed trace is bitwise."""
        scheduler_config = SchedulerConfig(
            executor="async-thread", n_eval_workers=3, clock=FakeClock()
        )

        def fresh_study():
            return Study(
                make_picklable_problem(),
                surrogate_factory=gp_factory,
                scheduler=scheduler_config,
                n_initial=5,
                max_evaluations=13,
                seed=2024,
            )

        uninterrupted = fresh_study()
        uninterrupted.optimizer.run_study(uninterrupted)

        class _Abort(Exception):
            pass

        interrupted = fresh_study()
        path = tmp_path / "async.json"

        def checkpoint_then_die(landing, result):
            if landing == 3:
                interrupted.checkpoint(path)
                raise _Abort

        interrupted.optimizer.callback = checkpoint_then_die
        with pytest.raises(_Abort):
            interrupted.optimizer.run_study(interrupted)

        resumed = Study.resume(
            path,
            make_picklable_problem(),
            surrogate_factory=gp_factory,
            scheduler=scheduler_config,
        )
        assert resumed.result.n_evaluations == 5 + 3
        assert resumed.n_pending == 2  # the in-flight trials survived
        resumed.optimizer.run_study(resumed)

        np.testing.assert_array_equal(
            resumed.result.x_matrix, uninterrupted.result.x_matrix
        )
        np.testing.assert_array_equal(
            resumed.result.objectives, uninterrupted.result.objectives
        )
        assert (
            resumed.ledger.completion_order
            == uninterrupted.ledger.completion_order
        )
        assert [
            (r.proposal_id, r.pending_at_proposal)
            for r in resumed.result.records
        ] == [
            (r.proposal_id, r.pending_at_proposal)
            for r in uninterrupted.result.records
        ]

    def test_fantasy_only_checkpoint_roundtrips_warm_bank(self, tmp_path):
        """Warm bank state travels with the checkpoint; posterior is bitwise."""
        scheduler = _fantasy_only_scheduler()
        study = Study(
            toy_constrained_quadratic(2),
            surrogate=_tiny_surrogate(),
            scheduler=scheduler,
            n_initial=5,
            max_evaluations=9,
            seed=1,
        )
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        trial = study.ask(1)[0]
        study.tell(trial, study.problem.evaluate_unit(trial.u))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must checkpoint without warning
            path = study.checkpoint(tmp_path / "warm.json")
        payload = json.loads(path.read_text())
        assert "warm_surrogate" in payload
        assert payload["needs_refit"] is False  # the landing was absorbed

        resumed = Study.resume(
            path,
            toy_constrained_quadratic(2),
            surrogate=_tiny_surrogate(),
            scheduler=scheduler,
        )
        assert resumed.proposer.fitted is not None
        assert resumed.proposer.fitted.bank is not None
        assert resumed.proposer.needs_refit is False
        np.testing.assert_array_equal(
            resumed.proposer.fitted.bank.gp._x_train, study.proposer.fitted.bank.gp._x_train
        )
        np.testing.assert_array_equal(
            resumed.proposer.fitted.objective_y, study.proposer.fitted.objective_y
        )
        xq = np.random.default_rng(5).uniform(size=(7, 2))
        for t in range(1 + study.problem.n_constraints):
            m0, v0 = study.proposer.fitted.bank.predict_target(t, xq)
            m1, v1 = resumed.proposer.fitted.bank.predict_target(t, xq)
            np.testing.assert_array_equal(m0, m1)
            np.testing.assert_array_equal(v0, v1)

    def test_async_fantasy_only_mid_flight_resume_matches_uninterrupted(
        self, tmp_path
    ):
        """Kill a fantasy-only async run at a landing; the resume is bitwise."""
        scheduler = _fantasy_only_scheduler()

        def fresh_study():
            return Study(
                toy_constrained_quadratic(2),
                surrogate=_tiny_surrogate(),
                scheduler=scheduler,
                n_initial=5,
                max_evaluations=9,
                seed=1,
            )

        uninterrupted = fresh_study()
        uninterrupted.optimizer.run_study(uninterrupted)

        class _Abort(Exception):
            pass

        interrupted = fresh_study()
        path = tmp_path / "warm_async.json"

        def checkpoint_then_die(landing, result):
            if landing == 2:
                interrupted.checkpoint(path)
                raise _Abort

        interrupted.optimizer.callback = checkpoint_then_die
        with pytest.raises(_Abort):
            interrupted.optimizer.run_study(interrupted)

        resumed = Study.resume(
            path,
            toy_constrained_quadratic(2),
            surrogate=_tiny_surrogate(),
            scheduler=scheduler,
        )
        assert resumed.proposer.fitted is not None and resumed.proposer.fitted.bank is not None
        resumed.optimizer.run_study(resumed)

        np.testing.assert_array_equal(
            resumed.result.x_matrix, uninterrupted.result.x_matrix
        )
        np.testing.assert_array_equal(
            resumed.result.objectives, uninterrupted.result.objectives
        )
        assert (
            resumed.ledger.completion_order
            == uninterrupted.ledger.completion_order
        )


def _tiny_surrogate():
    from repro.bo.config import SurrogateConfig

    return SurrogateConfig(
        n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20
    )


def _fantasy_only_scheduler():
    return SchedulerConfig(
        executor="async-thread",
        n_eval_workers=2,
        async_refit="fantasy-only",
        async_full_refit_every=3,
        clock=FakeClock(),
    )


class TestRetract:
    """`retract()` abandons an asked-but-untold trial (BO-as-a-service)."""

    def _warmed(self, **overrides):
        study = make_study(**overrides)
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        return study

    def test_retract_frees_the_budget_slot(self):
        study = self._warmed(max_evaluations=6)
        trial = study.ask(1)[0]  # the last budget slot, now pending
        study.retract(trial)
        assert study.n_pending == 0
        assert study.n_retracted == 1
        replacement = study.ask(1)[0]  # the slot is available again
        assert replacement.id != trial.id
        study.tell(replacement, study.problem.evaluate_unit(replacement.u))
        assert study.done

    def test_retracted_trial_cannot_be_told(self):
        study = self._warmed()
        trial = study.ask(1)[0]
        study.retract(trial)
        with pytest.raises(StudyError, match="was retracted"):
            study.tell(trial, study.problem.evaluate_unit(trial.u))

    def test_retract_protocol_errors(self):
        study = self._warmed()
        trial = study.ask(1)[0]
        study.retract(trial)
        with pytest.raises(StudyError, match="already retracted"):
            study.retract(trial)
        told = study.ask(1)[0]
        study.tell(told, study.problem.evaluate_unit(told.u))
        with pytest.raises(StudyError, match="already told"):
            study.retract(told)
        with pytest.raises(StudyError, match="unknown trial id 99"):
            study.retract(99)

    def test_ledger_records_the_retraction(self):
        study = self._warmed()
        trial = study.ask(1)[0]
        study.retract(trial)
        entry = study.ledger.entry(trial.proposal_id)
        assert entry.retracted
        assert entry.record_index is None
        # a retracted entry can never be committed afterwards
        with pytest.raises(ValueError, match="retracted"):
            study.ledger.commit(trial.proposal_id, 0)

    def test_retract_drops_the_lie_from_per_target_models(self, tmp_path):
        """Regression: per-target models take pending lies in place, so a
        retracted trial's lie used to linger in them until the next landing.
        They are now refit: the next ask equals that of a study resumed
        right after the retract, whose models are rebuilt from the history."""
        study = self._warmed(max_evaluations=12)
        trials = [study.ask(1)[0] for _ in range(3)]  # lies on the first two
        study.retract(trials[1])
        path = study.checkpoint(tmp_path / "after_retract.json")
        resumed = Study.resume(
            path, toy_constrained_quadratic(2), surrogate_factory=gp_factory
        )
        np.testing.assert_array_equal(resumed.ask(1)[0].u, study.ask(1)[0].u)

    def test_initial_trial_requeues_same_design(self):
        study = make_study()
        trial = study.ask(1)[0]
        assert trial.phase == "initial"
        study.retract(trial)
        assert study.n_retracted == 0  # re-queued, not abandoned
        again = study.ask(1)[0]
        np.testing.assert_array_equal(again.u, trial.u)

    def test_retraction_roundtrips_through_checkpoint(self, tmp_path):
        study = self._warmed(max_evaluations=12)
        abandoned = study.ask(1)[0]
        study.retract(abandoned)
        survivor = study.ask(1)[0]  # still pending at checkpoint time
        path = study.checkpoint(tmp_path / "retract.json")
        resumed = Study.resume(
            path, toy_constrained_quadratic(2), surrogate_factory=gp_factory
        )
        assert resumed.n_retracted == 1
        assert resumed.n_pending == 1
        with pytest.raises(StudyError, match="was retracted"):
            resumed.tell(abandoned.id, Evaluation(1.0, np.array([-1.0])))
        assert resumed.ledger.entry(abandoned.proposal_id).retracted
        # the surviving pending trial still commits normally
        pending_id = list(resumed.pending_trials())[0]
        resumed.tell(
            pending_id, resumed.problem.evaluate_unit(pending_id.u)
        )
        while not resumed.done:
            trial = resumed.ask()[0]
            resumed.tell(trial, resumed.problem.evaluate_unit(trial.u))
        assert resumed.result.n_evaluations == 12


class TestErrorTaxonomy:
    """Stable `.code` attributes — the BO service's wire error codes."""

    def test_codes_are_stable_api(self):
        assert StudyError.code == "study-error"
        assert BudgetExhausted.code == "budget-exhausted"
        assert UnknownTrial.code == "unknown-trial"
        assert CheckpointMismatch.code == "checkpoint-mismatch"

    def test_unknown_trial_raised_for_never_issued_ids(self):
        study = make_study()
        with pytest.raises(UnknownTrial, match="unknown trial id 42"):
            study.tell(42, 1.0)
        with pytest.raises(UnknownTrial, match="unknown trial id 42"):
            study.retract(42)

    def test_budget_exhaustion_is_its_own_code(self):
        study = make_study(n_initial=2, max_evaluations=2)
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        with pytest.raises(BudgetExhausted) as err:
            study.ask()
        assert err.value.code == "budget-exhausted"
        assert isinstance(err.value, StudyError)  # hierarchy intact

    def test_resume_mismatches_name_field_and_both_values(self, tmp_path):
        study = make_study()
        path = study.checkpoint(tmp_path / "study.json")

        with pytest.raises(
            CheckpointMismatch, match="'toy_quadratic_2d'.*'toy_quadratic_3d'"
        ) as err:
            Study.resume(
                path,
                toy_constrained_quadratic(3),
                surrogate_factory=gp_factory,
            )
        assert err.value.field == "problem"
        assert err.value.expected == "toy_quadratic_2d"
        assert err.value.actual == "toy_quadratic_3d"

        with pytest.raises(
            CheckpointMismatch, match=r"n_initial=5.*n_initial=7"
        ) as err:
            Study.resume(
                path,
                toy_constrained_quadratic(2),
                surrogate_factory=gp_factory,
                n_initial=7,
            )
        assert err.value.field == "n_initial"
        assert err.value.expected == 5
        assert err.value.actual == 7

    def test_resume_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "not_a_checkpoint.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(
            CheckpointMismatch, match="is not a study checkpoint"
        ) as err:
            Study.resume(
                path,
                toy_constrained_quadratic(2),
                surrogate_factory=gp_factory,
            )
        assert err.value.field == "format"
        assert err.value.actual == "something-else"


class TestDescribe:
    def test_describe_is_json_round_trippable(self):
        study = make_study()
        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        study.ask(1)
        described = study.describe()
        assert json.loads(json.dumps(described)) == described

    def test_describe_tracks_the_run(self):
        study = make_study(n_initial=2, max_evaluations=6)
        described = study.describe()
        assert described["problem"] == "toy_quadratic_2d"
        assert described["n_evaluations"] == 0
        assert described["dim"] == 2
        assert described["done"] is False
        assert described["incumbent"] is None

        for trial in study.start_initial():
            study.tell(trial, study.problem.evaluate_unit(trial.u))
        pending = study.ask(1)[0]
        described = study.describe()
        assert described["n_evaluations"] == 2
        assert described["n_pending"] == 1
        assert described["pending_ids"] == [pending.id]
        assert described["remaining_capacity"] == 3
        if described["incumbent"] is not None:
            assert described["incumbent"]["objective"] == (
                study.best().evaluation.objective
            )

    def test_config_digests_identify_equal_configs(self):
        a = make_study(
            surrogate_factory=None, surrogate=_tiny_surrogate(), seed=1
        )
        b = make_study(
            surrogate_factory=None, surrogate=_tiny_surrogate(), seed=2
        )
        assert (
            a.describe()["config_digests"] == b.describe()["config_digests"]
        )


class TestAskTimeCheckpoint:
    def test_checkpoint_after_ask_resumes_bitwise_under_full_refit(
        self, tmp_path
    ):
        """The service checkpoints after *every* mutation, asks included.

        Under the default ``async_refit="full"`` a consecutive streaming
        ask reuses the cached fit without consuming RNG — so a resume
        from an ask-time checkpoint must restore the warm bank rather
        than refit, or the RNG streams diverge.
        """

        def fresh():
            return Study(
                toy_constrained_quadratic(2),
                surrogate=_tiny_surrogate(),
                n_initial=3,
                max_evaluations=9,
                seed=4,
            )

        uninterrupted = fresh()
        interrupted = fresh()
        for study in (uninterrupted, interrupted):
            for trial in study.start_initial():
                study.tell(trial, study.problem.evaluate_unit(trial.u))
            study.ask(1)  # pending at checkpoint time; fit is warm

        path = interrupted.checkpoint(tmp_path / "after_ask.json")
        payload = json.loads(path.read_text())
        assert "warm_surrogate" in payload  # full-refit warm state travels
        resumed = Study.resume(
            path, toy_constrained_quadratic(2), surrogate=_tiny_surrogate()
        )

        for study in (uninterrupted, resumed):
            pending = study.pending_trials()[0]
            study.tell(pending, study.problem.evaluate_unit(pending.u))
            while not study.done:
                trial = study.ask()[0]
                study.tell(trial, study.problem.evaluate_unit(trial.u))
        np.testing.assert_array_equal(
            resumed.result.x_matrix, uninterrupted.result.x_matrix
        )
        np.testing.assert_array_equal(
            resumed.result.objectives, uninterrupted.result.objectives
        )

    @pytest.mark.parametrize("policy", ["full", "fantasy-only"])
    def test_resume_between_streaming_asks_with_pending_lies(self, tmp_path, policy):
        """Regression (found by the state-machine test): two streaming asks
        leave a fantasy lie in the live bank; the next ask must draw its
        lies from the fantasy-free posterior, as a resumed study (whose
        checkpoint drops fantasies) does.  It used to read the stale,
        still-fantasized posterior for the first lie and diverge."""
        scheduler = SchedulerConfig(async_refit=policy)

        def fresh():
            study = Study(
                toy_constrained_quadratic(2),
                surrogate=_tiny_surrogate(),
                scheduler=scheduler,
                n_initial=5,
                max_evaluations=10,
                seed=1,
            )
            for trial in study.start_initial():
                study.tell(trial, study.problem.evaluate_unit(trial.u))
            return study

        uninterrupted = fresh()
        uninterrupted.ask(1)
        uninterrupted.ask(1)
        path = uninterrupted.checkpoint(tmp_path / "two_pending.json")
        resumed = Study.resume(
            path,
            toy_constrained_quadratic(2),
            surrogate=_tiny_surrogate(),
            scheduler=scheduler,
        )
        np.testing.assert_array_equal(resumed.ask(1)[0].u, uninterrupted.ask(1)[0].u)
