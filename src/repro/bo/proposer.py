"""The proposal step of Algorithm 1, shared by every ask shape.

A :class:`Proposer` turns a study's committed history, plus the trials
still in flight, into the next designs to simulate.  Each
:class:`~repro.bo.study.Study` owns one, and every ``ask`` runs the same
sequence through it:

1. **fit** the objective and constraint surrogates: fresh models from the
   committed history (Algorithm 1 re-initializes them every round), the
   live fit kept from an earlier ask, or a warm-started refit of it;
2. **build the acquisition** over that posterior: wEI (eq. 7), the
   hallucinated optimistic bound, or one Thompson draw;
3. **condition** it on the pending trials and on the picks already made
   in the same ask: fantasy lies, local penalties, or nothing for
   Thompson, per the :class:`~repro.bo.config.AcquisitionConfig`;
4. **maximize** it, inside the active proposal subspace if there is one;
5. **de-duplicate**: a pick within ``duplicate_tol`` of a known design is
   replaced by a random draw.

A streaming ask (``n == 1``) is served from the *live fit*, which the
proposer keeps between asks.  The scheduler config's ``async_refit``
policy decides when that fit is rebuilt: ``"full"`` refits fresh after
every landing, ``"fantasy-only"`` absorbs landings posterior-only
(:meth:`Proposer.absorb`) and warm-starts a full refit every
``async_full_refit_every`` landings.  A joint batch (``n > 1``, nothing
pending) fits fresh models for its own picks and leaves the live fit
alone.  The live fit is the only surrogate state a study carries:
:meth:`Proposer.posterior_std` reads it, and checkpoints persist it
(:meth:`Proposer.warm_state` / :meth:`Proposer.restore`).

The proposer is internal: drive it through :class:`~repro.bo.study.Study`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.acquisition.fantasy import fantasy_lies
from repro.acquisition.penalization import (
    HallucinatedUCB,
    LocalPenalizer,
    PenalizedAcquisition,
    estimate_lipschitz,
)
from repro.acquisition.spaces import incumbent_index
from repro.acquisition.thompson import BankThompsonAcquisition
from repro.acquisition.wei import WeightedExpectedImprovement
from repro.bo import serialization
from repro.bo.loop import _sanitize_new_target, _sanitize_targets


@dataclass
class _IterationModels:
    """One fit's surrogate bank plus the sanitized targets it was fitted on.

    ``bank`` answers the :class:`~repro.core.batched_gp.SurrogateBank`
    surface (target 0 the objective, then each constraint): the NN-GP bank
    itself, or the per-target models behind a
    :class:`~repro.acquisition.fantasy.PerTargetBank`.  The fantasy lies
    and landing sanitization read the targets.  ``lipschitz`` caches the
    objective posterior's Lipschitz estimate for local penalization (one
    finite-difference sweep per fit).
    """

    bank: object
    objective_y: np.ndarray
    constraint_ys: list
    lipschitz: float | None = None


class Proposer:
    """Fit, acquire, condition, maximize and de-duplicate for one study.

    ``optimizer`` is the :class:`~repro.bo.loop.SurrogateBO` holding the
    study's configs, surrogate factories, maximizer and RNG.  The proposer
    alone holds the refit state: the live fit, whether it must be rebuilt
    before the next streaming ask, and the landings absorbed since it
    was fitted.
    """

    #: bounded retries for the duplicate-replacement draw
    _MAX_RESAMPLE_TRIES = 32

    def __init__(self, optimizer):
        self.optimizer = optimizer
        cfg = optimizer.scheduler_config
        every = cfg.async_full_refit_every
        self._full_refit_every = (
            max(1, cfg.resolve_in_flight()) if every is None else every
        )
        #: the live fit serving streaming asks (``None`` before the first)
        self.fitted: _IterationModels | None = None
        self.needs_refit = True
        self.landings_since_fit = 0

    # -- the proposal sequence ---------------------------------------------------

    def propose(self, x_unit, result, n: int = 1, pending=()) -> list[np.ndarray]:
        """Propose ``n`` unit-box designs.

        ``x_unit`` holds the committed designs (rows parallel
        ``result.records``); ``pending`` the unit designs still in
        flight.  ``n == 1`` is a streaming pick conditioned on
        ``pending``; ``n > 1`` a greedy joint batch whose picks condition
        on each other (the study only asks one with nothing pending).
        """
        bo = self.optimizer
        acq = bo.acquisition_config
        if n == 1:
            if self.fitted is None or self.needs_refit:
                self._refit(x_unit, result)
            fitted = self.fitted
        else:
            fitted = self._fit(x_unit, result)
        pending = list(pending)
        penalize = acq.acquisition == "wei" and acq.pending_strategy == "penalize"
        if penalize:
            base = self._acquisition(fitted, result)

        def stage_acquisition(j: int, picks: list[np.ndarray]):
            if penalize:
                # the posterior stays clean; exclusion balls do the spreading
                around = pending + picks
                if not around:
                    return base
                return self._penalized(fitted, base, around)
            if acq.acquisition == "wei":
                if j == 0:
                    self._condition_on_pending(fitted, pending)
                else:
                    self._add_fantasy(fitted, picks[-1])
            # Thompson diversifies by posterior sampling, not by lies
            return self._acquisition(fitted, result)

        def deduplicate(pick: np.ndarray, picks: list[np.ndarray]):
            known = np.vstack([x_unit, *pending, *picks])
            if self._is_duplicate(pick, known):
                pick = self._resample_non_duplicate(known)
            return pick

        self._prepare_proposal_space(x_unit, result)
        return bo.acq_maximizer.maximize_batch(
            stage_acquisition,
            n,
            bo.problem.dim,
            bo.rng,
            postprocess=deduplicate,
        )

    # -- fitting ------------------------------------------------------------------

    def _refit(self, x_unit, result) -> None:
        """Rebuild the live fit (warm-starting the bank under fantasy-only)."""
        warm = None
        if (
            self.optimizer.scheduler_config.async_refit == "fantasy-only"
            and self.fitted is not None
        ):
            # periodic full refit: keep the bank so training warm-starts
            # from the already-learned weights
            warm = self.fitted.bank
            warm.clear_fantasies(update=False)  # fit rebuilds anyway
        self.fitted = self._fit(x_unit, result, warm=warm)
        self.landings_since_fit = 0
        self.needs_refit = False

    def _fit(self, x_unit, result, warm=None) -> _IterationModels:
        """Fit the objective and every constraint to the committed history.

        All targets are fitted in ONE ``bank.fit`` call: on the ``warm``
        bank to warm-start it, else on a fresh bank from the factory, which
        re-initializes every model from the study's RNG.
        """
        bo = self.optimizer
        objective = _sanitize_targets(result.objectives)
        constraints = result.constraint_matrix
        ys = [objective] + [
            _sanitize_targets(constraints[:, i])
            for i in range(bo.problem.n_constraints)
        ]
        bank = warm if warm is not None else bo.surrogate_bank_factory(bo.rng, len(ys))
        bank.fit(x_unit, np.stack(ys))
        return _IterationModels(bank, ys[0], ys[1:])

    # -- acquisition ----------------------------------------------------------------

    def _acquisition(self, fitted: _IterationModels, result):
        """One acquisition callable over the current posterior.

        The ``"hallucinate"`` pending strategy swaps wEI for the
        optimistic-improvement bound (GP-BUCB criterion): the hallucinated
        believer updates between picks then act through the variance term.
        """
        bo = self.optimizer
        acq = bo.acquisition_config
        if acq.acquisition == "thompson":
            # a bank is guaranteed: SurrogateBO rejects Thompson without one
            return BankThompsonAcquisition(fitted.bank, rng=bo.rng)
        tau = result.best_objective()
        tau = None if not np.isfinite(tau) else tau
        if acq.pending_strategy == "hallucinate":
            # a "beta-t" schedule re-resolves per proposal: t is the
            # committed-evaluation count, so kappa grows ~ sqrt(log t)
            kappa = acq.resolve_hallucinate_kappa(
                bo.problem.dim, result.n_evaluations
            )
            return HallucinatedUCB(
                fitted.bank, tau=tau, kappa=kappa, log_space=bo.log_space_acq
            )
        return WeightedExpectedImprovement(
            fitted.bank, tau=tau, log_space=bo.log_space_acq
        )

    def _penalized(self, fitted: _IterationModels, base, around):
        """Wrap ``base`` with local penalties around the designs ``around``.

        The penalizer incumbent is the best *observed objective* over the
        fitted (sanitized) targets — feasibility ignored — exactly
        Gonzalez et al.'s ``M``: the exclusion-ball argument concerns the
        objective surface the surrogate models over the whole box, not
        the constrained incumbent ``tau``.  Substituting the
        best-feasible value was tried and measurably hurts when
        infeasible low-objective valleys exist (it shrinks every radius
        and the concurrent picks cluster; Gardner-problem regret in
        ``benchmarks/bench_pending_strategies.py`` degrades ~0.17).
        """
        bo = self.optimizer
        around = np.atleast_2d(np.asarray(around, dtype=float))
        means, variances = fitted.bank.predict_target(0, around)
        finite = fitted.objective_y[np.isfinite(fitted.objective_y)]
        best = float(np.min(finite)) if finite.size else float("nan")
        if fitted.lipschitz is None:
            fitted.lipschitz = estimate_lipschitz(
                partial(fitted.bank.predict_target, 0), bo.problem.dim
            )
        penalizer = LocalPenalizer(
            around, means, variances, best=best, lipschitz=fitted.lipschitz
        )
        return PenalizedAcquisition(base, penalizer, log_space=bo.log_space_acq)

    # -- conditioning -----------------------------------------------------------------

    def _condition_on_pending(self, fitted: _IterationModels, pending) -> None:
        """Fantasy-condition the bank on exactly the in-flight designs.

        ``reset_fantasies`` says how many held fantasies carry over: the
        NN-GP bank drops its stack (posterior-only updates are cheap) and
        rebuilds it from the live pending set, even after landings removed
        members.  Per-target models keep theirs, since each cost a refit;
        they are always the first pending designs, because every landing
        (per-target models run ``async_refit="full"``, checked at
        construction) and every :meth:`retract` of one refits.
        """
        for u in pending[fitted.bank.reset_fantasies():]:
            self._add_fantasy(fitted, u)

    def _add_fantasy(self, fitted: _IterationModels, u) -> None:
        """Condition the models on one lied observation at ``u``.

        Under ``pending_strategy="hallucinate"`` the lie is always the
        believer (posterior-mean) value: a hallucinated observation leaves
        the mean surface untouched and only collapses variance at ``u``.
        """
        acq = self.optimizer.acquisition_config
        strategy = "believer" if acq.pending_strategy == "hallucinate" else acq.fantasy
        bank = fitted.bank
        bank.fantasize(u, fantasy_lies(bank, u, fitted.objective_y, strategy))

    # -- maximization helpers -----------------------------------------------------------

    def _prepare_proposal_space(self, x_unit, result) -> None:
        """Point the active proposal subspace at the current incumbent.

        A no-op on the full-space path.  ``x_unit`` rows parallel
        ``result.records`` (both append per committed evaluation), so the
        incumbent record's index addresses its unit design directly.
        """
        bo = self.optimizer
        if bo.proposal_space is None:
            return
        idx = incumbent_index(result)
        bo.proposal_space.set_incumbent(
            None if idx is None or idx >= len(x_unit) else x_unit[idx]
        )

    def _is_duplicate(self, proposal: np.ndarray, known: np.ndarray) -> bool:
        dists = np.max(np.abs(known - proposal[None, :]), axis=1)
        return bool(np.any(dists < self.optimizer.acquisition_config.duplicate_tol))

    def _resample_non_duplicate(self, known: np.ndarray) -> np.ndarray:
        """Draw a random replacement point that is itself not a duplicate.

        A single uniform draw can land on a known design (likely with a
        coarse ``duplicate_tol`` or a near-exhausted discrete region),
        which would waste a simulation; retry a bounded number of times
        and keep the final draw regardless.
        """
        bo = self.optimizer
        for _ in range(self._MAX_RESAMPLE_TRIES):
            proposal = bo.rng.uniform(0.0, 1.0, size=bo.problem.dim)
            if not self._is_duplicate(proposal, known):
                return proposal
        return proposal

    # -- landings ---------------------------------------------------------------------

    def absorb(self, u, evaluation) -> None:
        """Take in one landed search evaluation per the refit policy.

        Under ``"full"``, and at every ``async_full_refit_every``-th
        landing, the live fit is marked stale so the next streaming ask
        refits.  Otherwise (``"fantasy-only"``) the landing enters the
        bank's posterior without retraining.
        """
        self.landings_since_fit += 1
        fitted = self.fitted
        if (
            self.optimizer.scheduler_config.async_refit == "full"
            or fitted is None
            or self.landings_since_fit >= self._full_refit_every
        ):
            self.needs_refit = True
            return
        # observe() rebuilds the posterior; the intermediate fantasy-free
        # rebuild would be wasted work on the landing hot path
        fitted.bank.clear_fantasies(update=False)
        u = np.asarray(u, dtype=float)
        obj = _sanitize_new_target(evaluation.objective, fitted.objective_y)
        cons = [
            _sanitize_new_target(c, ys)
            for c, ys in zip(evaluation.constraints, fitted.constraint_ys)
        ]
        fitted.bank.observe(u, np.array([obj, *cons]))
        # the absorb moved the posterior-mean surface: a cached Lipschitz
        # estimate would mis-scale the penalization exclusion balls until
        # the next full refit, so force a fresh sweep on the next use
        fitted.lipschitz = None
        # keep the sanitized targets consistent for future lies/landings
        fitted.objective_y = np.append(fitted.objective_y, obj)
        fitted.constraint_ys = [
            np.append(ys, c) for ys, c in zip(fitted.constraint_ys, cons)
        ]

    def retract(self) -> None:
        """A pending search trial was dropped before it landed.

        The NN-GP bank drops its fantasies; the next ask rebuilds them from
        the live pending set.  Per-target models keep theirs, which may hold
        the dropped trial's lie: refit them.
        """
        if self.fitted is not None and self.fitted.bank.reset_fantasies():
            self.needs_refit = True

    def posterior_std(self, u) -> float | None:
        """Objective-posterior std at ``u`` from the live fit (pure read)."""
        if self.fitted is None:
            return None
        u = np.atleast_2d(np.asarray(u, dtype=float))
        _, variance = self.fitted.bank.predict_target(0, u)
        return float(np.sqrt(max(float(np.mean(variance)), 0.0)))

    # -- persistence ------------------------------------------------------------------

    def warm_state(self) -> dict:
        """Checkpoint fields for the live fit, or ``{}`` when none is needed.

        The warm bank is live state under ``"fantasy-only"`` (absorbed
        landings and warm-started periodic refits both read it) and, under
        ``"full"``, whenever the current fit is still reusable (a
        checkpoint taken after an ask, before the next landing): the
        uninterrupted run would serve the next streaming ask from this fit
        without touching the RNG, so a bitwise resume must restore it
        rather than refit.  Fantasies are rebuilt from the pending set per
        ask and are deliberately dropped.  Per-target models
        (``surrogate_factory``) carry no serializable state; their
        between-ask resumes refit.
        """
        fitted = self.fitted
        if fitted is None or self.optimizer.surrogate_factory is not None:
            return {}
        if self.optimizer.scheduler_config.async_refit == "full" and self.needs_refit:
            return {}
        return {
            "needs_refit": bool(self.needs_refit),
            "warm_surrogate": {
                "bank": serialization.bank_state_to_dict(fitted.bank),
                "objective_y": np.asarray(fitted.objective_y, dtype=float).tolist(),
                "constraint_ys": [
                    np.asarray(ys, dtype=float).tolist()
                    for ys in fitted.constraint_ys
                ],
                "lipschitz": (
                    None if fitted.lipschitz is None else float(fitted.lipschitz)
                ),
            },
        }

    def restore(self, payload: dict) -> None:
        """Restore the refit state from a study checkpoint payload."""
        bo = self.optimizer
        self.landings_since_fit = int(payload["landings_since_fit"])
        warm = payload.get("warm_surrogate")
        if warm is None or bo.surrogate_factory is not None:
            # no warm surrogate travelled with the checkpoint; the first
            # streaming ask after the resume fits fresh
            self.needs_refit = True
            return
        # rebuild the bank under a throwaway RNG (the study's stream must
        # stay exactly where the checkpoint left it) and overwrite the
        # fresh weights with the serialized state
        bank = bo.surrogate_bank_factory(
            np.random.default_rng(0), 1 + bo.problem.n_constraints
        )
        serialization.restore_bank_state(bank, warm["bank"])
        self.fitted = _IterationModels(
            bank,
            np.asarray(warm["objective_y"], dtype=float),
            [np.asarray(ys, dtype=float) for ys in warm["constraint_ys"]],
            lipschitz=warm.get("lipschitz"),
        )
        self.needs_refit = bool(payload.get("needs_refit", True))
