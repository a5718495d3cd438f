"""Ask/tell optimizer core: the BO loop inverted into a state machine.

The paper's Algorithm 1 is a propose -> simulate -> absorb cycle.  The
historical ``SurrogateBO.run()`` owned all three stages, so only the
executors this library ships could drive simulations.  :class:`Study`
inverts that control flow: it owns the optimizer state — history,
proposal ledger, RNG, the pending set, and a
:class:`~repro.bo.proposer.Proposer` that makes every proposal and holds
the live surrogate fit — and exposes it as an ask/tell protocol, so *any*
evaluation backend (a SPICE license queue, a cluster scheduler, a human at
a lab bench) can supply results at its own pace::

    study = Study(problem, surrogate=SurrogateConfig(), seed=0)
    for trial in study.start_initial():
        study.tell(trial, my_simulator(trial.x))
    while not study.done:
        trial = study.ask()[0]
        study.tell(trial, my_simulator(trial.x))
    print(study.best())

``SurrogateBO.run()`` — the evaluation farm's batch-barrier and refill
loops — is a thin driver over this class, and
the pinned serial, batch and asynchronous traces are bitwise unchanged:

* telling each ``ask()`` result immediately (serial, q = 1) reproduces
  the legacy single-point loop exactly — same surrogate fits, same RNG
  stream, same history;
* ``ask(q)`` is the greedy q-point batch proposal, ``ask(1)`` with
  trials outstanding is the asynchronous pending-conditioned proposal
  (fantasy lies / local penalization / hallucinated bounds, per the
  :class:`~repro.bo.config.AcquisitionConfig`); both run the proposer's
  one fit -> acquire -> condition -> maximize -> de-duplicate sequence;
* the commit order is the tell order, so an external backend replaying a
  recorded completion order reproduces an asynchronous run bitwise.

:meth:`checkpoint` / :meth:`Study.resume` persist the whole state machine
(history, ledger, RNG stream, pending set, and — whenever the next ask
would reuse it — the proposer's warm surrogate bank) through
:mod:`repro.bo.serialization`, so a killed 10k-evaluation run restarts
losslessly: a resume at any landing, and on the bank between asks too,
continues on the exact trace of the uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bo import serialization
from repro.bo.config import config_to_dict
from repro.bo.design import make_design
from repro.bo.history import EvaluationRecord, OptimizationResult
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.problem import Evaluation, Problem
from repro.bo.proposer import Proposer
from repro.bo.scheduler import ProposalLedger

CHECKPOINT_FORMAT = "repro.study/v2"
#: formats :meth:`Study.resume` reads: v1 stored the warm bank's arrays as
#: nested float lists, v2 stores them as base64 float64 blobs
_READABLE_FORMATS = ("repro.study/v1", CHECKPOINT_FORMAT)


class StudyError(ValueError):
    """An ask/tell protocol violation (unknown trial, wrong phase, ...).

    Every class in the taxonomy carries a stable machine-readable
    :attr:`code` — the BO service uses these verbatim as wire error codes,
    so they are part of the public contract and must never change once
    shipped.  Catching :class:`StudyError` catches the whole taxonomy.
    """

    #: stable error code (wire-safe kebab-case identifier)
    code = "study-error"


class BudgetExhausted(StudyError):
    """``ask()`` was called with no evaluation budget left."""

    code = "budget-exhausted"


class UnknownTrial(StudyError):
    """A trial id this study never handed out (or no longer tracks)."""

    code = "unknown-trial"


class CheckpointMismatch(StudyError):
    """A :meth:`Study.resume` argument disagrees with the checkpoint.

    ``field`` names the offending checkpoint field; ``expected`` is the
    checkpointed value and ``actual`` what ``resume()`` received — the
    message spells out all three so the fix is obvious from the traceback
    (and the service error envelope carries them in ``detail``).
    """

    code = "checkpoint-mismatch"

    def __init__(self, message, *, field=None, expected=None, actual=None):
        super().__init__(message)
        self.field = field
        self.expected = expected
        self.actual = actual


def tell_form(evaluation) -> str:
    """The :meth:`Study.tell` form of ``evaluation``, or :class:`StudyError`.

    ``"evaluation"`` for an :class:`~repro.bo.problem.Evaluation`,
    ``"pair"`` for an ``(objective, constraints)`` tuple or list, and
    ``"objective"`` for a bare real number.  The service client checks a
    tell with this same rule before it crosses the wire.
    """
    if isinstance(evaluation, Evaluation):
        return "evaluation"
    if isinstance(evaluation, (tuple, list)) and len(evaluation) == 2:
        return "pair"
    if isinstance(evaluation, (int, float, np.floating, np.integer)):
        return "objective"
    raise StudyError(
        "tell() accepts an Evaluation, an (objective, constraints) "
        f"pair, or a bare objective; got {evaluation!r}"
    )


@dataclass
class Trial:
    """One proposed design travelling through the ask/tell cycle.

    ``u`` is the design in unit-box coordinates (what the optimizer
    reasons in), ``x`` the same point in natural units (what a simulator
    consumes).  ``phase`` is ``"initial"`` for the random starting design
    and ``"search"`` for optimizer proposals.  Search trials carry ledger
    provenance: ``proposal_id`` indexes the study's
    :class:`~repro.bo.scheduler.ProposalLedger` and
    ``pending_at_proposal`` names the proposals that were in flight when
    this design was chosen (the points its acquisition conditioned on).
    ``iteration`` is assigned at ask time for batch trials and at tell
    time (commit order) for streaming trials.  ``speculative`` marks a
    trial asked opportunistically by the evaluation farm
    (:mod:`repro.farm`) to fill idle workers — it counts against the
    budget like any pending trial and is either told (promotion) or
    retracted (abandonment); the flag mirrors the ledger entry's.
    """

    id: int
    u: np.ndarray
    x: np.ndarray
    phase: str
    batch_index: int = 0
    iteration: int | None = None
    pending: tuple[int, ...] = ()
    proposal_id: int | None = None
    pending_at_proposal: tuple[int, ...] = ()
    speculative: bool = False

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float).ravel()
        self.x = np.asarray(self.x, dtype=float).ravel()
        # a checkpoint's or the wire's JSON lists come back as tuples
        self.pending = tuple(self.pending)
        self.pending_at_proposal = tuple(self.pending_at_proposal)


class Study:
    """Ask/tell state machine for constrained surrogate-based BO.

    Parameters
    ----------
    problem:
        The :class:`~repro.bo.problem.Problem` to minimize.
    surrogate:
        A :class:`~repro.bo.config.SurrogateConfig` — builds the paper's
        NN-feature-GP ensemble optimizer (:class:`~repro.bo.loop.NNBO`).
        Mutually exclusive with the explicit factories below.
    surrogate_factory, surrogate_bank_factory:
        Explicit surrogate sources (the :class:`~repro.bo.loop.SurrogateBO`
        extension point) for GP baselines or custom models; pass exactly
        one.
    acquisition:
        An :class:`~repro.bo.config.AcquisitionConfig` (defaults apply).
    scheduler:
        A :class:`~repro.bo.config.SchedulerConfig`.  A standalone study
        only reads its concurrency-policy fields (``async_refit``,
        ``async_full_refit_every``, worker counts for the refit period);
        the executor fields matter when a driver evaluates the trials.
        ``async_refit="fantasy-only"`` needs the NN-GP bank.
    n_initial, max_evaluations, initial_design, acq_maximizer, seed, name:
        As on :class:`~repro.bo.loop.SurrogateBO`.

    Construction consumes the RNG exactly like the legacy ``run()`` did
    (the initial design is drawn up front), so a study and a legacy run
    with the same seed share one proposal stream.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        surrogate=None,
        surrogate_factory=None,
        surrogate_bank_factory=None,
        acquisition=None,
        scheduler=None,
        n_initial: int = 30,
        max_evaluations: int = 100,
        initial_design: str = "lhs",
        acq_maximizer=None,
        seed=None,
        name: str | None = None,
        _optimizer: SurrogateBO | None = None,
        _defer_initial: bool = False,
    ):
        if _optimizer is not None:
            self.optimizer = _optimizer
        elif surrogate is not None:
            if surrogate_factory is not None or surrogate_bank_factory is not None:
                raise StudyError(
                    "pass either surrogate=SurrogateConfig(...) or explicit "
                    f"factories, not both (got surrogate={surrogate!r} and "
                    "surrogate_factory/surrogate_bank_factory)"
                )
            self.optimizer = NNBO(
                problem,
                n_initial=n_initial,
                max_evaluations=max_evaluations,
                initial_design=initial_design,
                name=name,
                acq_maximizer=acq_maximizer,
                surrogate=surrogate,
                acquisition_config=acquisition,
                scheduler_config=scheduler,
                seed=seed,
            )
        else:
            self.optimizer = SurrogateBO(
                problem,
                surrogate_factory,
                n_initial=n_initial,
                max_evaluations=max_evaluations,
                initial_design=initial_design,
                acq_maximizer=acq_maximizer,
                surrogate_bank_factory=surrogate_bank_factory,
                acquisition_config=acquisition,
                scheduler_config=scheduler,
                seed=seed,
                name=name,
            )
        self.problem = self.optimizer.problem
        self.result = OptimizationResult(
            self.problem.name, self.optimizer.algorithm_name
        )
        self.ledger = ProposalLedger()
        self.result.ledger = self.ledger
        self._unit_x: list[np.ndarray] = []
        self._pending: dict[int, Trial] = {}
        self._told: set[int] = set()
        self._retracted: set[int] = set()
        self._initial_queue: list[Trial] = []
        self._next_id = 0
        self._iteration = 0
        self._cache_hits0, self._cache_misses0 = self.problem.cache_stats
        #: the proposal step (fits, acquisition, conditioning, maximize) and
        #: the only holder of the surrogate refit state
        self.proposer = Proposer(self.optimizer)
        if not _defer_initial:
            self._generate_initial()

    @classmethod
    def from_optimizer(cls, optimizer: SurrogateBO) -> "Study":
        """A study sharing an existing optimizer's configuration and RNG."""
        return cls(optimizer.problem, _optimizer=optimizer)

    def _generate_initial(self) -> None:
        bo = self.optimizer
        designs = make_design(
            bo.initial_design, bo.n_initial, self.problem.dim, bo.rng
        )
        for j, u in enumerate(designs):
            u = np.asarray(u, dtype=float)
            self._initial_queue.append(
                Trial(
                    id=self._next_id,
                    u=u,
                    x=self.problem.scaler.inverse_transform(u),
                    phase="initial",
                    batch_index=j,
                    iteration=0,
                )
            )
            self._next_id += 1

    # -- introspection ------------------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The study's RNG (one stream drives design, fits and proposals)."""
        return self.optimizer.rng

    @property
    def n_initial(self) -> int:
        return self.optimizer.n_initial

    @property
    def max_evaluations(self) -> int:
        return self.optimizer.max_evaluations

    @property
    def n_evaluations(self) -> int:
        """Evaluations committed to the history so far."""
        return self.result.n_evaluations

    @property
    def n_pending(self) -> int:
        """Trials asked but not yet told."""
        return len(self._pending)

    @property
    def n_retracted(self) -> int:
        """Search trials dropped via :meth:`retract`."""
        return len(self._retracted)

    @property
    def remaining_capacity(self) -> int:
        """How many more trials may be asked (budget minus committed/pending)."""
        return self.max_evaluations - self.result.n_evaluations - len(self._pending)

    @property
    def done(self) -> bool:
        """True once the full evaluation budget has been committed."""
        return self.result.n_evaluations >= self.max_evaluations

    @property
    def initial_remaining(self) -> int:
        """Initial-design trials not yet handed out by :meth:`ask`."""
        return len(self._initial_queue)

    def pending_trials(self) -> list[Trial]:
        """Asked-but-untold trials, in submission order."""
        return list(self._pending.values())

    def best(self) -> EvaluationRecord | None:
        """The best feasible record so far, or ``None``."""
        return self.result.best_feasible()

    def posterior_std(self, u) -> float | None:
        """Objective-posterior standard deviation at ``u`` (unit box).

        ``None`` before the first surrogate fit.  This is the
        posterior-sharpness signal the evaluation farm's adaptive-q
        policy reads (batches shrink as the posterior sharpens); the
        prediction is a pure read — no RNG, no state mutation — so
        calling it never perturbs the study's trace.
        """
        return self.proposer.posterior_std(u)

    def describe(self) -> dict:
        """JSON-safe snapshot of the study state.

        Counters, pending/retracted trial ids, the feasible incumbent and
        short digests of the typed configs — everything a remote client
        needs to render progress without downloading the full history.
        The returned dict contains only plain JSON types
        (``json.dumps(study.describe())`` round-trips losslessly) and
        backs the BO service's ``status`` endpoint.
        """
        best = self.result.best_feasible()
        incumbent = None
        if best is not None:
            incumbent = {
                "index": int(best.index),
                "x": [float(v) for v in best.x],
                "objective": float(best.evaluation.objective),
                "constraints": [float(c) for c in best.evaluation.constraints],
                "feasible": bool(best.evaluation.feasible),
                "phase": str(best.phase),
                "iteration": (
                    None if best.iteration is None else int(best.iteration)
                ),
            }
        digests = {
            "acquisition": serialization.config_digest(
                self.optimizer.acquisition_config
            ),
            "scheduler": serialization.config_digest(
                self.optimizer.scheduler_config
            ),
        }
        surrogate_config = getattr(self.optimizer, "surrogate_config", None)
        if surrogate_config is not None:
            digests["surrogate"] = serialization.config_digest(surrogate_config)
        space = self.optimizer.proposal_space
        return {
            "problem": str(self.problem.name),
            "algorithm": str(self.optimizer.algorithm_name),
            "dim": int(self.problem.dim),
            "n_constraints": int(self.problem.n_constraints),
            "n_initial": int(self.n_initial),
            "max_evaluations": int(self.max_evaluations),
            "n_evaluations": int(self.n_evaluations),
            "n_pending": int(self.n_pending),
            "n_retracted": int(self.n_retracted),
            "initial_remaining": int(self.initial_remaining),
            "remaining_capacity": int(self.remaining_capacity),
            "iteration": int(self._iteration),
            "next_trial_id": int(self._next_id),
            "done": bool(self.done),
            "pending_ids": [int(i) for i in sorted(self._pending)],
            "retracted_ids": [int(i) for i in sorted(self._retracted)],
            "incumbent": incumbent,
            "cache": {
                "hits": int(self.result.cache_hits),
                "misses": int(self.result.cache_misses),
            },
            "async_refit": str(self.optimizer.scheduler_config.async_refit),
            "proposal_space": "full" if space is None else str(space.name),
            "config_digests": digests,
            "checkpoint_format": CHECKPOINT_FORMAT,
        }

    # -- ask ---------------------------------------------------------------------

    def start_initial(self) -> list[Trial]:
        """All initial-design trials that still need an evaluation.

        Returns previously asked (pending) initial trials first — so a
        resumed study hands back the in-flight part of its design — then
        drains the remaining queue.  Idempotent once everything is told.
        """
        pending_initial = [
            t for t in self._pending.values() if t.phase == "initial"
        ]
        if self._initial_queue:
            pending_initial.extend(self.ask(len(self._initial_queue)))
        return pending_initial

    def ask(self, n: int = 1, *, speculative: bool = False) -> list[Trial]:
        """Propose up to ``n`` designs to evaluate next.

        While the initial design is being handed out, returns (up to
        ``n``) queued initial trials.  Afterwards ``n == 1`` yields one
        streaming proposal conditioned on the still-pending set and
        ``n > 1`` a greedy q-point batch (which requires an empty pending
        set — batch picks condition only on each other).  Raises
        :class:`BudgetExhausted` once committed plus pending trials reach
        ``max_evaluations``.

        ``speculative=True`` (streaming asks only) marks the trial as an
        opportunistic runner-up proposal — the evaluation farm's idle
        filler.  The proposal machinery is identical (the pending-point
        strategy already spreads runner-up acquisition maxima away from
        the in-flight set); only the ledger/trial provenance differs.
        """
        n = int(n)
        if n < 1:
            raise StudyError(f"n must be >= 1, got {n}")
        if speculative and n != 1:
            raise StudyError(
                f"speculative asks are streaming proposals; ask n=1 per "
                f"speculative trial, got n={n}"
            )
        capacity = self.remaining_capacity
        if capacity <= 0:
            raise BudgetExhausted(
                f"cannot ask for more trials: max_evaluations="
                f"{self.max_evaluations} with {self.result.n_evaluations} "
                f"committed and {len(self._pending)} pending"
            )
        if self._initial_queue:
            if speculative:
                raise StudyError(
                    "speculative proposals require a completed initial "
                    f"design ({len(self._initial_queue)} initial trials "
                    "still queued)"
                )
            take = self._initial_queue[:n]
            del self._initial_queue[: len(take)]
            for trial in take:
                self._pending[trial.id] = trial
            return take
        pending_initial = [
            t.id for t in self._pending.values() if t.phase == "initial"
        ]
        if pending_initial:
            raise StudyError(
                "initial design incomplete: tell() trials "
                f"{pending_initial} before asking for search proposals"
            )
        if n > capacity:
            raise BudgetExhausted(
                f"asked for {n} trials but only {capacity} remain "
                f"(max_evaluations={self.max_evaluations}, "
                f"{self.result.n_evaluations} committed, "
                f"{len(self._pending)} pending)"
            )
        in_flight = list(self._pending.values())
        if n > 1:
            if in_flight:
                raise StudyError(
                    f"ask(n={n}) proposes a joint batch and requires an empty "
                    f"pending set, but trials {sorted(self._pending)} are "
                    "pending; tell() them first or ask(1) for streaming "
                    "proposals"
                )
            self._iteration += 1
        base = self.result.n_evaluations
        picks = self.proposer.propose(
            np.stack(self._unit_x), self.result, n, [t.u for t in in_flight]
        )
        trials: list[Trial] = []
        for j, pick in enumerate(picks):
            entry = self.ledger.open(
                pick,
                tuple(t.proposal_id for t in in_flight + trials),
                strategy=self.optimizer.acquisition_config.pending_strategy,
                speculative=speculative,
            )
            trial = Trial(
                id=self._next_id,
                u=pick,
                x=self.problem.scaler.inverse_transform(pick),
                phase="search",
                batch_index=j,
                # streaming trials are numbered at tell time (commit order)
                iteration=self._iteration if n > 1 else None,
                pending=tuple(range(base, base + j)),
                proposal_id=entry.proposal_id,
                pending_at_proposal=entry.pending_at_proposal,
                speculative=speculative,
            )
            self._next_id += 1
            self._pending[trial.id] = trial
            trials.append(trial)
        return trials

    # -- tell --------------------------------------------------------------------

    def tell(self, trial, evaluation) -> EvaluationRecord:
        """Commit one evaluated trial to the history.

        ``trial`` is a :class:`Trial` from :meth:`ask` (or its integer
        id); ``evaluation`` an :class:`~repro.bo.problem.Evaluation`, an
        ``(objective, constraints)`` pair, or a bare objective for
        unconstrained problems.  Commits happen in tell order — that *is*
        the completion order of an asynchronous run — and each search
        landing is absorbed into the surrogate according to the
        scheduler config's ``async_refit`` policy.  Non-finite objectives
        are accepted (failed simulations carry information); they are
        sanitized at surrogate-fit time, exactly as in the closed loop.
        """
        trial_id = trial.id if isinstance(trial, Trial) else int(trial)
        task = self._pending.get(trial_id)
        if task is None:
            if trial_id in self._told:
                raise StudyError(
                    f"trial {trial_id} was already told; each trial commits "
                    "exactly once"
                )
            if trial_id in self._retracted:
                raise StudyError(
                    f"trial {trial_id} was retracted; a retracted trial "
                    "cannot be told"
                )
            raise UnknownTrial(
                f"unknown trial id {trial_id}; pending ids: "
                f"{sorted(self._pending)}"
            )
        evaluation = self._coerce_evaluation(evaluation)
        del self._pending[trial_id]
        record_index = self.result.n_evaluations
        space = self.optimizer.proposal_space
        improved = (
            self._improves_incumbent(evaluation)
            if (task.phase == "search" and space is not None)
            else None
        )
        if task.phase == "initial":
            self.result.append(
                self.problem.scaler.inverse_transform(task.u),
                evaluation,
                phase="initial",
                iteration=0,
                batch_index=task.batch_index,
            )
        else:
            if task.iteration is None:
                # streaming trials number by commit (landing) order
                self._iteration += 1
                task.iteration = self._iteration
            self.result.append(
                self.problem.scaler.inverse_transform(task.u),
                evaluation,
                phase="search",
                iteration=task.iteration,
                batch_index=task.batch_index,
                pending=task.pending,
                proposal_id=task.proposal_id,
                pending_at_proposal=task.pending_at_proposal,
            )
            self.ledger.commit(task.proposal_id, record_index)
        self._unit_x.append(task.u)
        self._told.add(trial_id)
        self._sync_cache_counters()
        if task.phase == "search":
            self.proposer.absorb(task.u, evaluation)
        if improved is not None:
            space.observe(improved)
        return self.result.records[-1]

    def _improves_incumbent(self, evaluation: Evaluation) -> bool:
        """Would committing ``evaluation`` improve the incumbent?

        The success signal of adaptive proposal spaces (the trust region's
        expand/shrink counters): a feasible landing strictly beating the
        best feasible objective, the first feasible landing ever, or —
        while nothing is feasible yet — a landing lowering the smallest
        total violation seen.  Called before the evaluation is appended.
        """
        best = self.result.best_feasible()
        if best is not None:
            return bool(
                evaluation.feasible
                and evaluation.objective < best.evaluation.objective
            )
        if evaluation.feasible:
            return True
        if not self.result.records:
            return True
        floor = min(
            r.evaluation.violation
            if np.isfinite(r.evaluation.violation)
            else np.inf
            for r in self.result.records
        )
        violation = evaluation.violation
        return bool(np.isfinite(violation) and violation < floor)

    def retract(self, trial) -> Trial:
        """Drop an asked-but-untold trial, freeing its budget slot.

        The BO-as-a-service primitive: a client that timed out mid-flight
        (or a speculative evaluation that lost its race) abandons its
        trial instead of telling a result.  An *initial-design* trial is
        re-queued at the front of the design queue — the design point
        itself is part of the seeded experiment plan and will be handed
        out again by the next :meth:`ask`.  A *search* trial is removed
        from the pending set (its fantasies/penalties disappear from the
        next proposal automatically — conditioning is rebuilt from the
        live pending set each ask, and per-target models, which take lies
        in place, are refit) and its ledger entry is marked
        retracted, keeping the provenance trail honest.  Telling a
        retracted trial afterwards raises; retraction round-trips through
        :meth:`checkpoint`/:meth:`resume`.
        """
        trial_id = trial.id if isinstance(trial, Trial) else int(trial)
        task = self._pending.get(trial_id)
        if task is None:
            if trial_id in self._told:
                raise StudyError(
                    f"trial {trial_id} was already told; only pending "
                    "trials can be retracted"
                )
            if trial_id in self._retracted:
                raise StudyError(f"trial {trial_id} was already retracted")
            raise UnknownTrial(
                f"unknown trial id {trial_id}; pending ids: "
                f"{sorted(self._pending)}"
            )
        del self._pending[trial_id]
        if task.phase == "initial":
            self._initial_queue.insert(0, task)
            return task
        self._retracted.add(trial_id)
        if task.proposal_id is not None:
            self.ledger.retract(task.proposal_id)
        self.proposer.retract()
        return task

    def _coerce_evaluation(self, evaluation) -> Evaluation:
        form = tell_form(evaluation)
        if form == "objective":
            if self.problem.n_constraints:
                raise StudyError(
                    f"problem {self.problem.name!r} has "
                    f"{self.problem.n_constraints} constraints; tell() needs "
                    f"an Evaluation, got bare objective {evaluation!r}"
                )
            return Evaluation(float(evaluation), np.empty(0))
        if form == "pair":
            objective, constraints = evaluation
            evaluation = Evaluation(float(objective), np.asarray(constraints, dtype=float))
        if evaluation.constraints.shape[0] != self.problem.n_constraints:
            raise StudyError(
                f"evaluation has {evaluation.constraints.shape[0]} "
                f"constraints but problem {self.problem.name!r} defines "
                f"{self.problem.n_constraints}"
            )
        return evaluation

    def _sync_cache_counters(self) -> None:
        hits, misses = self.problem.cache_stats
        self.result.cache_hits = hits - self._cache_hits0
        self.result.cache_misses = misses - self._cache_misses0

    # -- persistence --------------------------------------------------------------

    def checkpoint(self, path) -> Path:
        """Write the complete study state to ``path`` (JSON).

        Captures the committed history (with ledger provenance), the
        pending set, the undrawn initial design, the RNG stream position
        and the iteration counters — everything needed for
        :meth:`resume` to continue the run losslessly.  The resumed trace
        is bitwise identical to the uninterrupted one at any landing
        (after a :meth:`tell`, before further asks: the next ask refits
        from the restored history and RNG position) and, on the batched
        engine, also between asks: whenever the live fit would be reused
        by the next proposal, the warm surrogate state (bank weights,
        scales and the incrementally sanitized targets) is serialized
        alongside and restored exactly, so a checkpoint taken right after
        an ask — the BO service checkpoints after *every* state mutation —
        continues without consuming RNG the uninterrupted run would not
        have.  Per-target surrogates (``surrogate_factory``, behind a
        :class:`~repro.acquisition.fantasy.PerTargetBank`) carry no
        serializable warm state: a between-ask resume refits them from the
        restored history and RNG, so it is deterministic but not bitwise.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "problem": self.problem.name,
            "algorithm": self.optimizer.algorithm_name,
            "n_initial": self.n_initial,
            "max_evaluations": self.max_evaluations,
            "initial_design": self.optimizer.initial_design,
            "acquisition_config": config_to_dict(self.optimizer.acquisition_config),
            "scheduler_config": config_to_dict(self.optimizer.scheduler_config),
            "rng_state": serialization.rng_state_to_dict(self.rng),
            "iteration": self._iteration,
            "next_trial_id": self._next_id,
            "told": sorted(self._told),
            "retracted": sorted(self._retracted),
            "landings_since_fit": self.proposer.landings_since_fit,
            "result": serialization.result_to_dict(self.result),
            "unit_x": [u.tolist() for u in self._unit_x],
            "initial_queue": [_trial_to_dict(t) for t in self._initial_queue],
            "pending": [_trial_to_dict(t) for t in self._pending.values()],
        }
        space = self.optimizer.proposal_space
        if space is not None:
            # adaptive proposal-space state (trust-region length/counters)
            # is live optimizer state: a resumed study must continue with
            # the exact region the interrupted run had reached
            payload["proposal_space"] = {
                "name": space.name,
                "state": space.state_to_dict(),
            }
        # the live surrogate fit, when a bitwise resume needs it
        payload.update(self.proposer.warm_state())
        path = Path(path)
        # no indent: json's C encoder runs only when indent is None
        path.write_text(json.dumps(payload))
        return path

    @classmethod
    def resume(cls, path, problem: Problem, **study_kwargs) -> "Study":
        """Rebuild a study from a :meth:`checkpoint` file.

        ``problem`` and the surrogate source (``surrogate=`` config or the
        explicit factories) cannot travel through JSON and must be passed
        again, identical to the original construction; the budget and
        design parameters are restored from the checkpoint and must not be
        re-passed.  Pending trials stay pending — a driver re-submits them
        (:meth:`pending_trials`) and the run continues.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as exc:
            # a truncated or corrupted file is the store's fault, not the
            # caller's: report it as a checkpoint conflict naming the file
            raise CheckpointMismatch(
                f"{path} is damaged: the document is not valid JSON ({exc})",
                field="document",
                expected="a JSON object",
                actual=str(exc),
            ) from exc
        marker = payload.get("format") if isinstance(payload, dict) else None
        if marker not in _READABLE_FORMATS:
            raise CheckpointMismatch(
                f"{path} is not a study checkpoint: field 'format' is "
                f"{marker!r}, expected one of {_READABLE_FORMATS!r}",
                field="format",
                expected=CHECKPOINT_FORMAT,
                actual=marker,
            )
        if payload["problem"] != problem.name:
            raise CheckpointMismatch(
                f"checkpoint field 'problem' is {payload['problem']!r} "
                f"but resume() received problem {problem.name!r}",
                field="problem",
                expected=payload["problem"],
                actual=problem.name,
            )
        for key in ("n_initial", "max_evaluations", "initial_design"):
            if key in study_kwargs:
                raise CheckpointMismatch(
                    f"{key} is restored from the checkpoint (checkpoint "
                    f"{key}={payload[key]!r}, resume() got "
                    f"{key}={study_kwargs[key]!r}); do not pass it to "
                    "resume()",
                    field=key,
                    expected=payload[key],
                    actual=study_kwargs[key],
                )
        study = cls(
            problem,
            n_initial=payload["n_initial"],
            max_evaluations=payload["max_evaluations"],
            initial_design=payload["initial_design"],
            _defer_initial=True,
            **study_kwargs,
        )
        serialization.restore_rng_state(study.rng, payload["rng_state"])
        study.result = serialization.result_from_dict(payload["result"])
        study.ledger = study.result.ledger
        if study.ledger is None:
            study.ledger = ProposalLedger()
            study.result.ledger = study.ledger
        study._unit_x = [
            np.asarray(u, dtype=float) for u in payload["unit_x"]
        ]
        study._iteration = int(payload["iteration"])
        study._next_id = int(payload["next_trial_id"])
        study._told = set(int(i) for i in payload["told"])
        study._retracted = set(int(i) for i in payload.get("retracted", []))
        saved_space = payload.get("proposal_space")
        space = study.optimizer.proposal_space
        saved = "full" if saved_space is None else saved_space["name"]
        built = "full" if space is None else space.name
        if saved != built:
            raise CheckpointMismatch(
                f"checkpoint field 'proposal_space' is {saved!r} but resume() "
                f"built {built!r}; pass the same AcquisitionConfig as the "
                "original study",
                field="proposal_space",
                expected=saved,
                actual=built,
            )
        if space is not None:
            space.restore_state(saved_space["state"])
        study._initial_queue = [
            _trial_from_dict(d, problem) for d in payload["initial_queue"]
        ]
        study._pending = {}
        for entry in payload["pending"]:
            trial = _trial_from_dict(entry, problem)
            study._pending[trial.id] = trial
        # future cache deltas continue from the checkpointed totals even
        # though this problem instance's counters start wherever they are
        hits, misses = problem.cache_stats
        study._cache_hits0 = hits - study.result.cache_hits
        study._cache_misses0 = misses - study.result.cache_misses
        try:
            study.proposer.restore(payload)
        except serialization.DamagedArray as exc:
            field = f"warm_surrogate.bank.{exc.field}"
            raise CheckpointMismatch(
                f"{path} is damaged: warm surrogate bank {exc}",
                field=field,
                expected=exc.expected,
                actual=exc.actual,
            ) from exc
        return study

    def __repr__(self) -> str:
        return (
            f"Study({self.optimizer.algorithm_name} on {self.problem.name!r}: "
            f"{self.result.n_evaluations}/{self.max_evaluations} committed, "
            f"{len(self._pending)} pending)"
        )


def _trial_to_dict(trial: Trial) -> dict:
    data = config_to_dict(trial)
    # natural units are rebuilt from u on resume
    del data["x"]
    return data


def _trial_from_dict(data: dict, problem: Problem) -> Trial:
    u = np.asarray(data["u"], dtype=float)
    return Trial(**data, x=problem.scaler.inverse_transform(u))


__all__ = [
    "BudgetExhausted",
    "CHECKPOINT_FORMAT",
    "CheckpointMismatch",
    "Study",
    "StudyError",
    "Trial",
    "UnknownTrial",
    "tell_form",
]
