"""Stateful property test of the ask/tell :class:`Study` state machine.

Hypothesis drives a study (tiny NN-feature-GP bank, small DE maximizer)
through arbitrary interleavings of the protocol:

* ``ask(1)``, ``ask(n)`` with nothing pending, speculative ``ask(1)``;
* ``tell`` of any pending trial (out of order), with a simulated or a NaN
  objective;
* ``retract`` of any pending trial;
* ``checkpoint`` then ``resume``.

Invariants, checked after every step:

* committed + pending never exceeds ``max_evaluations`` (retracted trials
  are refunded: the remaining capacity is exactly the difference);
* the ledger's completion order is the tell order;
* ``describe()`` survives a JSON round trip.

A resume must also continue exactly where the study left off: the first
ask after it returns trials bitwise equal to those the uninterrupted
study (kept as a shadow for that one ask) returns.  Both refit policies
and every pending-point strategy run, since they checkpoint different
surrogate state.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.acquisition.maximize import DifferentialEvolutionMaximizer
from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import AcquisitionConfig, SchedulerConfig, SurrogateConfig
from repro.bo.study import Study

TINY_BANK = SurrogateConfig(n_ensemble=2, hidden_dims=(6,), n_features=4, epochs=8)
POLICIES = {
    "full": SchedulerConfig(),
    "fantasy-only": SchedulerConfig(async_refit="fantasy-only", async_full_refit_every=2),
}


def study_kwargs(policy: str, strategy: str) -> dict:
    return dict(
        surrogate=TINY_BANK,
        acquisition=AcquisitionConfig(pending_strategy=strategy),
        scheduler=POLICIES[policy],
        # a short Nelder-Mead polish makes every pick sensitive to the last
        # bit of the acquisition surface, so any state drift shows
        acq_maximizer=DifferentialEvolutionMaximizer(
            pop_size=8, generations=3, polish_maxiter=20
        ),
    )


def trial_key(trial) -> tuple:
    """Everything an ask hands out, with the design compared bitwise."""
    return (
        trial.id,
        trial.u.tobytes(),
        trial.phase,
        trial.batch_index,
        trial.iteration,
        trial.pending,
        trial.proposal_id,
        trial.pending_at_proposal,
        trial.speculative,
    )


class StudyMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.n_checkpoints = 0

    def teardown(self):
        self._tmp.cleanup()

    @initialize(
        policy=st.sampled_from(sorted(POLICIES)),
        strategy=st.sampled_from(["fantasy", "penalize", "hallucinate"]),
        seed=st.integers(0, 3),
    )
    def start(self, policy, strategy, seed):
        self.kwargs = study_kwargs(policy, strategy)
        self.problem = toy_constrained_quadratic(2)
        self.study = Study(self.problem, n_initial=4, max_evaluations=12, seed=seed, **self.kwargs)
        for trial in self.study.start_initial():
            self.study.tell(trial, self.problem.evaluate_unit(trial.u))
        #: proposal ids of told search trials, in tell order
        self.told = []

    # -- asks ----------------------------------------------------------------------

    @precondition(lambda self: self.study.remaining_capacity > 0)
    @rule()
    def ask_one(self):
        self.study.ask(1)

    @precondition(
        lambda self: self.study.n_pending == 0 and self.study.remaining_capacity >= 2
    )
    @rule(n=st.integers(2, 3))
    def ask_batch(self, n):
        trials = self.study.ask(min(n, self.study.remaining_capacity))
        assert [t.batch_index for t in trials] == list(range(len(trials)))

    @precondition(lambda self: self.study.remaining_capacity > 0)
    @rule()
    def ask_speculative(self):
        (trial,) = self.study.ask(1, speculative=True)
        assert trial.speculative

    # -- tells and retracts ----------------------------------------------------------

    def _pick(self, index):
        pending = self.study.pending_trials()
        return pending[index % len(pending)]

    @precondition(lambda self: self.study.n_pending > 0)
    @rule(index=st.integers(0, 5))
    def tell(self, index):
        trial = self._pick(index)
        self.study.tell(trial, self.problem.evaluate_unit(trial.u))
        self.told.append(trial.proposal_id)

    @precondition(lambda self: self.study.n_pending > 0)
    @rule(index=st.integers(0, 5))
    def tell_nan(self, index):
        trial = self._pick(index)
        nan = (float("nan"), np.zeros(self.problem.n_constraints))
        record = self.study.tell(trial, nan)
        assert np.isnan(record.evaluation.objective)
        self.told.append(trial.proposal_id)

    @precondition(lambda self: self.study.n_pending > 0)
    @rule(index=st.integers(0, 5))
    def retract(self, index):
        trial = self._pick(index)
        self.study.retract(trial)
        assert self.study.ledger.entry(trial.proposal_id).retracted

    # -- persistence -----------------------------------------------------------------

    @rule(batch=st.booleans())
    def checkpoint_resume(self, batch):
        path = Path(self._tmp.name) / f"study-{self.n_checkpoints}.json"
        self.n_checkpoints += 1
        self.study.checkpoint(path)
        resumed = Study.resume(path, self.problem, **self.kwargs)
        shadow, self.study = self.study, resumed
        capacity = shadow.remaining_capacity
        if capacity <= 0:
            return
        n = 2 if (batch and shadow.n_pending == 0 and capacity >= 2) else 1
        expected = [trial_key(t) for t in shadow.ask(n)]
        assert [trial_key(t) for t in resumed.ask(n)] == expected

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def budget_holds(self):
        study = self.study
        assert study.n_evaluations + study.n_pending <= study.max_evaluations
        assert study.remaining_capacity == (
            study.max_evaluations - study.n_evaluations - study.n_pending
        )

    @invariant()
    def completion_order_is_tell_order(self):
        assert self.study.ledger.completion_order == self.told

    @invariant()
    def describe_round_trips(self):
        snapshot = self.study.describe()
        assert json.loads(json.dumps(snapshot)) == snapshot


StudyMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestStudyStateMachine = StudyMachine.TestCase
