"""Farm-backed study drivers: barrier, refill, speculation, elastic control.

:class:`FarmStudyDriver` runs the library's two closed loops, both over
one :class:`~repro.farm.farm.EvaluationFarm` and one batch helper
(``_run_batch``: submit a batch, tell it in batch order, cancel the rest
on error):

* the **barrier loop** (:meth:`FarmStudyDriver.run_batches`) — the
  initial design, a resumed study's pending trials and then each
  ``ask(q)`` batch go through the batch helper; ``SurrogateBO.run``
  drives every executor but the ``async-*`` specs this way;
* the **refill-on-completion loop** (:meth:`FarmStudyDriver.run` /
  :meth:`~FarmStudyDriver.run_studies`) — after the initial design it
  keeps a study's in-flight target saturated, tells every landing in
  completion order and asks a replacement immediately, for a single
  study (``SurrogateBO.run`` with an ``async-*`` executor) or for many
  concurrent studies sharing one farm.

On top of the fixed refill loop it adds three adaptive behaviours:

* **elastic sizing** — a study's in-flight target tracks
  ``ceil(eval_ewma / propose_cost_s)`` (how many evaluations fit in one
  proposal cycle), backed off while the shared pool is oversubscribed
  and clamped to the configured band;
* **speculative evaluation** — spare capacity runs runner-up proposals
  (``Study.ask(1, speculative=True)``; the pending-point strategy
  already spreads them away from the in-flight set).  A speculative
  flight that completes commits like any landing; one overtaken by
  demand is *promoted* into the regular target (a bookkeeping flip — no
  new proposal); one unpromoted after ``max_age_landings`` landings is
  *abandoned* via :meth:`~repro.bo.study.Study.retract`;
* **adaptive q** — the target shrinks toward ``q_min`` as the objective
  posterior sharpens (proposal-point posterior-std EWMA relative to the
  first post-initial proposal).

Determinism contract: under a :class:`~repro.bo.scheduler.FakeClock`
every decision input is a count, a virtual duration, or a seeded
surrogate read, so the trace is a pure function of ``(seed, completion
order)`` — and with the default fixed/no-speculation config the
single-study trace is pinned *bitwise* against a plain ask/tell replay
of the same completion rule (``tests/farm/test_farm_driver.py``).
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass

from repro.bo.config import FarmConfig, SpeculationConfig, check_count
from repro.farm.errors import EvaluationTimeout, FarmSaturated
from repro.farm.farm import EvaluationFarm, FarmTask, FarmTenant


@dataclass
class FarmJob:
    """One study's seat at the farm: what to run and under which policy.

    ``target`` is the baseline in-flight count (``FarmConfig.mode ==
    "fixed"`` keeps it; elastic mode uses it as the starting point).
    ``config`` / ``speculation`` default to a fixed, non-speculative
    policy; ``on_commit(trial, evaluation, result)`` fires after each
    landing is absorbed.
    """

    study: object
    tenant: FarmTenant
    target: int | None = None
    config: FarmConfig | None = None
    speculation: SpeculationConfig | None = None
    on_commit: object = None


class _Flight:
    """One in-flight trial of one study (driver-side bookkeeping).

    ``speculative`` is the *live* role — promotion flips it to False
    while the trial/ledger provenance keeps recording how the proposal
    was asked.  ``born_landing`` timestamps speculation age in landings.
    """

    __slots__ = ("trial", "task", "seq", "virtual_ready", "speculative", "born_landing")

    def __init__(self, trial, task, seq, virtual_ready, speculative, born_landing):
        self.trial = trial
        self.task = task
        self.seq = seq
        self.virtual_ready = virtual_ready
        self.speculative = speculative
        self.born_landing = born_landing


class _JobState:
    """Mutable per-study driver state (clock, targets, EWMAs, flights)."""

    def __init__(self, job: FarmJob, index: int):
        self.study = job.study
        self.tenant = job.tenant
        self.cfg = job.config if job.config is not None else FarmConfig()
        self.spec = job.speculation
        self.on_commit = job.on_commit
        self.index = index
        base = job.target
        if base is None:
            base = self.cfg.min_in_flight
        self.base_target = check_count("target", base)
        self.target = self.base_target
        self.in_flight: list[_Flight] = []
        self.seq = 0
        self.now = 0.0
        self.landings = 0
        self.eval_ewma: float | None = None
        self.std0: float | None = None
        self.std_ewma: float | None = None
        self.n_speculated = 0
        self.n_promoted = 0
        self.n_abandoned = 0
        self.n_timeouts = 0

    def regular(self) -> list[_Flight]:
        return [f for f in self.in_flight if not f.speculative]

    def speculative(self) -> list[_Flight]:
        return [f for f in self.in_flight if f.speculative]


class FarmStudyDriver:
    """Drive one or many ask/tell studies through a shared farm."""

    def __init__(self, farm: EvaluationFarm, clock=None):
        self.farm = farm
        self.clock = clock

    # -- public entry points ------------------------------------------------------

    def run(
        self,
        study,
        tenant,
        *,
        target: int | None = None,
        config: FarmConfig | None = None,
        speculation: SpeculationConfig | None = None,
        on_commit=None,
    ):
        """Drive a single study to its budget; returns its result."""
        job = FarmJob(
            study=study,
            tenant=tenant,
            target=target,
            config=config,
            speculation=speculation,
            on_commit=on_commit,
        )
        return self.run_studies([job])[0]

    def run_batches(self, study, tenant, *, q: int, on_batch=None):
        """Drive a single study to its budget in q-point batches.

        The barrier loop: the initial design, a resumed study's pending
        trials, then each ``ask(min(q, remaining))`` batch are evaluated
        concurrently and told in batch order (:meth:`_run_batch`), so the
        trace is the same on every executor.  ``on_batch(result)`` fires
        after each search batch.  Returns the study's result.
        """
        q = check_count("q", q)
        self._run_batch(study, tenant, study.start_initial())
        # a resumed study may carry in-flight search trials; evaluate them
        # first (in submission order) so the budget completes and the next
        # batch ask sees a clean pending set
        self._run_batch(study, tenant, study.pending_trials())
        while study.remaining_capacity > 0:
            trials = study.ask(min(q, study.remaining_capacity))
            self._run_batch(study, tenant, trials)
            if on_batch is not None:
                on_batch(study.result)
        return study.result

    def run_studies(self, jobs):
        """Drive several studies concurrently on the shared farm.

        Studies interleave at landing granularity: each completed
        evaluation is told to its study immediately, that study refills
        (promotions first, then fresh asks, then speculation), and the
        globally next completion is committed — under a fake clock the
        earliest ``(virtual_ready, job, seq)`` across all studies, under
        wall clock the first real completion.  Returns the studies'
        results in job order.
        """
        states = [_JobState(job, i) for i, job in enumerate(jobs)]
        try:
            for st in states:
                self._run_batch(st.study, st.tenant, st.study.start_initial())
                # recover the virtual clock from the committed ledger so a
                # resumed fake-clock run continues on the original timeline
                for entry in st.study.ledger.entries:
                    if (
                        entry.committed_at is not None
                        and entry.virtual_ready is not None
                    ):
                        st.now = max(st.now, entry.virtual_ready)
                # re-submit a resumed study's pending search trials in
                # their original submission order / recorded virtual times
                for trial in st.study.pending_trials():
                    ready = st.study.ledger.entry(trial.proposal_id).virtual_ready
                    task = self.farm.submit(st.tenant, trial.u)
                    st.in_flight.append(
                        _Flight(
                            trial, task, st.seq, ready,
                            trial.speculative, st.landings,
                        )
                    )
                    st.seq += 1
            while True:
                for st in states:
                    self._refill(st, states)
                if not any(st.in_flight for st in states):
                    break
                st, flight = self._next_completed(states)
                st.in_flight.remove(flight)
                try:
                    evaluation = self.farm.collect(
                        flight.task, timeout=st.cfg.eval_timeout_s
                    )
                except EvaluationTimeout:
                    # the timed-out trial never lands: retract it so its
                    # budget slot frees and the refill proposes afresh
                    st.n_timeouts += 1
                    st.study.retract(flight.trial)
                    continue
                if flight.virtual_ready is not None:
                    st.now = max(st.now, flight.virtual_ready)
                st.study.tell(flight.trial, evaluation)
                st.landings += 1
                self._observe(st, flight)
                self._update_target(st, states)
                self._age_speculation(st)
                if st.on_commit is not None:
                    st.on_commit(flight.trial, evaluation, st.study.result)
        except BaseException:
            # a poisoned evaluation (or interrupt) must not orphan queued
            # work: cancel everything still in flight before propagating
            for st in states:
                for flight in st.in_flight:
                    self.farm.cancel(flight.task)
            raise
        return [st.study.result for st in states]

    # -- phases -------------------------------------------------------------------

    def _run_batch(self, study, tenant, trials) -> None:
        """Evaluate trials concurrently; tell them in batch order.

        The barrier of the initial design (generated jointly, with no
        pending-set conditioning), of a resumed study's pending trials in
        :meth:`run_batches` and of each q-point batch.  Commit order is
        the batch order whatever the completion order, so the surrogate
        state after the batch is independent of worker timing.  On an
        error the trials told so far are a contiguous batch-order prefix
        and the rest are cancelled.
        """
        tasks: list[FarmTask] = []
        try:
            for trial in trials:
                tasks.append(self.farm.submit(tenant, trial.u))
            for trial, task in zip(trials, tasks):
                study.tell(trial, self.farm.collect(task))
        except BaseException:
            for task in tasks:
                self.farm.cancel(task)
            raise

    def _submit(self, st: _JobState, trial, speculative: bool) -> bool:
        """Annotate timing, hand one asked trial to the farm, track it."""
        ready = (
            None if self.clock is None else st.now + self.clock.duration(trial.u)
        )
        # the driver owns timing: annotate the study's ledger entry so
        # checkpoints carry the virtual clock
        st.study.ledger.entry(trial.proposal_id).virtual_ready = ready
        try:
            task = self.farm.submit(st.tenant, trial.u)
        except FarmSaturated:
            # backpressure: undo the ask so budget accounting stays exact
            st.study.retract(trial)
            return False
        st.in_flight.append(
            _Flight(trial, task, st.seq, ready, speculative, st.landings)
        )
        st.seq += 1
        return True

    def _refill(self, st: _JobState, states) -> None:
        """Fill one study's in-flight set: promote, ask, then speculate."""
        study = st.study
        # promotion: demand first claims in-flight speculation — the
        # proposal is already paid for and already conditioned on the
        # pending set, so flipping its role beats asking afresh
        for flight in st.in_flight:
            if len(st.regular()) >= st.target:
                break
            if flight.speculative:
                flight.speculative = False
                st.n_promoted += 1
        while len(st.regular()) < st.target and study.remaining_capacity > 0:
            trial = study.ask(1)[0]
            self._track_std(st, trial)
            if not self._submit(st, trial, speculative=False):
                break
        if st.spec is None:
            return
        while (
            len(st.speculative()) < st.spec.max_speculative
            and study.remaining_capacity > 0
        ):
            trial = study.ask(1, speculative=True)[0]
            if not self._submit(st, trial, speculative=True):
                break
            st.n_speculated += 1

    def _next_completed(self, states) -> tuple[_JobState, _Flight]:
        """The globally next landing across all studies.

        Fake-clock mode: the smallest ``(virtual_ready, job, seq)`` —
        machine-independent.  Wall-clock mode: wait for the first real
        completion among dispatched futures (job/submission order breaks
        ties when several land together).
        """
        if self.clock is not None:
            return min(
                (
                    (st, flight)
                    for st in states
                    for flight in st.in_flight
                ),
                key=lambda pair: (
                    pair[1].virtual_ready,
                    pair[0].index,
                    pair[1].seq,
                ),
            )
        while True:
            dispatched = {
                flight.task.future: (st, flight)
                for st in states
                for flight in st.in_flight
                if flight.task.future is not None
            }
            if dispatched:
                done, _ = wait(set(dispatched), return_when=FIRST_COMPLETED)
                ready = [dispatched[future] for future in done]
                return min(
                    ready, key=lambda pair: (pair[0].index, pair[1].seq)
                )
            # everything in flight is still queued at the farm (capacity
            # below total demand): wait for the earliest dispatch
            queued = [
                flight.task
                for st in states
                for flight in st.in_flight
                if flight.task.future is None
            ]
            queued[0]._dispatched.wait()

    # -- adaptive control ---------------------------------------------------------

    def _track_std(self, st: _JobState, trial) -> None:
        """Record the proposal-point posterior std (adaptive-q signal)."""
        if not st.cfg.adaptive_q:
            return
        std = st.study.posterior_std(trial.u)
        if std is None:
            return
        if st.std0 is None:
            st.std0 = max(std, 1e-12)
        a = st.cfg.ewma_alpha
        st.std_ewma = (
            std if st.std_ewma is None else a * std + (1.0 - a) * st.std_ewma
        )

    def _observe(self, st: _JobState, flight: _Flight) -> None:
        """Fold one landing's evaluation time into the driver EWMA.

        Under a fake clock the duration is the virtual one — a pure
        function of the design — so elastic decisions replay exactly;
        under wall clock the farm's measured task duration is used.
        """
        if self.clock is not None:
            duration = float(self.clock.duration(flight.trial.u))
        elif flight.task.duration is not None:
            duration = float(flight.task.duration)
        else:
            return
        a = st.cfg.ewma_alpha
        st.eval_ewma = (
            duration
            if st.eval_ewma is None
            else a * duration + (1.0 - a) * st.eval_ewma
        )

    def _update_target(self, st: _JobState, states) -> None:
        """Re-derive the in-flight target after a landing."""
        cfg = st.cfg
        if cfg.mode == "fixed" and not cfg.adaptive_q:
            return
        target = st.base_target
        if cfg.mode == "elastic" and st.eval_ewma is not None:
            # evaluations that fit in one proposal cycle, backed off by
            # the pool's oversubscription (deterministic queue-depth
            # proxy: total in-flight beyond farm capacity)
            target = math.ceil(st.eval_ewma / cfg.propose_cost_s)
            total = sum(len(s.in_flight) for s in states)
            target -= max(0, total - self.farm.capacity)
        if cfg.adaptive_q and st.std0 is not None and st.std_ewma is not None:
            sharpness = min(1.0, st.std_ewma / st.std0)
            target = math.ceil(target * sharpness)
        floor = min(cfg.min_in_flight, cfg.q_min) if cfg.adaptive_q else cfg.min_in_flight
        ceiling = (
            cfg.max_in_flight
            if cfg.max_in_flight is not None
            else max(st.base_target, self.farm.capacity)
        )
        st.target = max(floor, min(int(target), ceiling))

    def _age_speculation(self, st: _JobState) -> None:
        """Abandon speculative flights that outlived their usefulness."""
        if st.spec is None:
            return
        for flight in list(st.in_flight):
            if not flight.speculative:
                continue
            if st.landings - flight.born_landing >= st.spec.max_age_landings:
                st.study.retract(flight.trial)
                self.farm.cancel(flight.task)
                st.in_flight.remove(flight)
                st.n_abandoned += 1


__all__ = ["FarmJob", "FarmStudyDriver"]
