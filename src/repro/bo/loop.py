"""Generic constrained surrogate-based Bayesian optimization (Algorithm 1).

The driver is deliberately surrogate-agnostic: the paper's method and the
WEIBO baseline differ *only* in the ``surrogate_factory`` they plug in
(NN-feature-GP ensemble vs. explicit-kernel GP), exactly mirroring the
paper's experimental control.

Since the ask/tell redesign, :class:`SurrogateBO` is a thin closed-loop
driver over the :class:`~repro.bo.study.Study` state machine: ``run()``
builds a study, pumps its ``ask``/``tell`` cycle through the configured
evaluation executor, and returns the study's history.  All proposal
machinery (surrogate fits, acquisition construction, fantasy/penalty
conditioning, duplicate handling) lives on this class and is shared by
the study, so driving a study manually reproduces ``run()`` bitwise.

Configuration is grouped into typed dataclasses
(:mod:`repro.bo.config`): an :class:`~repro.bo.config.AcquisitionConfig`
(acquisition family, lies/penalties for concurrent picks) and a
:class:`~repro.bo.config.SchedulerConfig` (batch size, executor, async
refit policy).  The configs are the only way to set these knobs.

Per iteration (Fig. 2):

1. fit one fresh surrogate to the objective and one per constraint
   (fresh = newly constructed by the factory, so hyper-parameters are
   randomly re-initialized each round as in Algorithm 1),
2. propose ``q`` designs by greedy q-point acquisition — the wEI path
   (eq. 7) keeps the batch diverse according to ``pending_strategy``,
   the Thompson path draws ``q`` independent posterior functions,
3. dispatch the batch to the evaluation executor
   (:mod:`repro.bo.scheduler`) and ingest the simulations as they land,
   recording per-candidate provenance in the history.

``q=1`` with the serial executor reproduces the original single-point
loop bitwise (pinned by ``tests/bo/test_scheduler.py``); the
``"async-*"`` executors switch to the refill-on-completion loop of a
single-tenant evaluation farm (:mod:`repro.farm`; pinned by
``tests/bo/test_async_scheduler.py`` and ``tests/farm/``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acquisition.fantasy import FantasyModelSet, fantasy_lies
from repro.acquisition.maximize import (
    AcquisitionMaximizer,
    DifferentialEvolutionMaximizer,
)
from repro.acquisition.penalization import (
    HallucinatedUCB,
    LocalPenalizer,
    PenalizedAcquisition,
    estimate_lipschitz,
)
from repro.acquisition.spaces import SubspaceMaximizer, incumbent_index
from repro.acquisition.wei import WeightedExpectedImprovement
from repro.bo.config import (
    ASYNC_REFIT_POLICIES,
    AcquisitionConfig,
    FarmConfig,
    SchedulerConfig,
)
from repro.bo.history import OptimizationResult
from repro.bo.problem import Problem
from repro.bo.scheduler import EvaluationScheduler, make_evaluator
from repro.utils.rng import ensure_rng

__all__ = [
    "ASYNC_REFIT_POLICIES",
    "SurrogateBO",
]

@dataclass
class _IterationModels:
    """One iteration's fitted surrogates plus their training data.

    ``bank`` is the :class:`~repro.core.batched_gp.SurrogateBank` when the
    batched engine fitted the targets jointly (``None`` on the legacy
    per-target path); the fantasy machinery needs the raw sanitized
    targets either way.  ``lipschitz`` caches the objective posterior's
    Lipschitz estimate for the local-penalization pending strategy (one
    finite-difference sweep per fit, shared by every proposal against
    these models).
    """

    objective: object
    constraints: list
    bank: object | None
    x: np.ndarray
    objective_y: np.ndarray
    constraint_ys: list
    lipschitz: float | None = None


class SurrogateBO:
    """Constrained Bayesian optimization with pluggable surrogates.

    Parameters
    ----------
    problem:
        The :class:`~repro.bo.problem.Problem` to minimize.
    surrogate_factory:
        Callable ``(rng) -> model`` returning a fresh surrogate with
        ``fit(x, y)`` and ``predict(x) -> (mean, var)``.  Called once per
        modelled quantity per iteration (the per-target loop path used by
        the WEIBO/GP baselines).
    surrogate_bank_factory:
        Callable ``(rng, n_targets) -> bank`` returning a fresh
        :class:`~repro.core.batched_gp.SurrogateBank`-style object with
        ``fit(x, targets)`` (``targets`` of shape ``(n_targets, N)``) and
        ``target_model(t) -> predict-protocol model``.  When provided it
        replaces the per-target factory loop with ONE batched fit of the
        objective and all constraints together (the paper method's hot
        path); ``surrogate_factory`` may still be passed alongside for
        introspection/compatibility but is not called by the proposer.
    n_initial:
        Size of the random initial design (Algorithm 1, line 1).
    max_evaluations:
        Total simulation budget including the initial design.
    initial_design:
        ``"lhs"`` (default), ``"random"`` or ``"sobol"``.
    acq_maximizer:
        Inner-loop engine; defaults to
        :class:`DifferentialEvolutionMaximizer`.
    acquisition_config:
        An :class:`~repro.bo.config.AcquisitionConfig`: acquisition family
        (``"wei"``/``"thompson"``), log-space evaluation, duplicate
        tolerance, and the pending-point strategy (fantasy lies, local
        penalization, hallucinated bounds) for concurrent proposals.
    scheduler_config:
        A :class:`~repro.bo.config.SchedulerConfig`: proposals per
        iteration ``q``, the evaluation executor (``"serial"`` /
        ``"thread"`` / ``"process"`` / ``"async-thread"`` /
        ``"async-process"`` or an executor instance), worker counts, the
        asynchronous refit policy, and an optional
        :class:`~repro.bo.scheduler.FakeClock` for deterministic replay.
    seed, verbose, callback:
        Reproducibility / reporting hooks.  ``callback(iteration, result)``
        runs after every ingested batch (every landing in async mode).
    """

    algorithm_name = "SurrogateBO"

    def __init__(
        self,
        problem: Problem,
        surrogate_factory=None,
        n_initial: int = 30,
        max_evaluations: int = 100,
        initial_design: str = "lhs",
        acq_maximizer: AcquisitionMaximizer | None = None,
        *,
        surrogate_bank_factory=None,
        seed=None,
        verbose: bool = False,
        callback=None,
        name: str | None = None,
        acquisition_config: AcquisitionConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
    ):
        if n_initial < 2:
            raise ValueError(f"n_initial must be >= 2, got {n_initial}")
        if max_evaluations < n_initial:
            raise ValueError(
                f"max_evaluations ({max_evaluations}) must cover the initial "
                f"design ({n_initial})"
            )
        if surrogate_factory is None and surrogate_bank_factory is None:
            raise ValueError(
                "provide surrogate_factory and/or surrogate_bank_factory"
            )
        if acquisition_config is None:
            acquisition_config = AcquisitionConfig()
        if scheduler_config is None:
            scheduler_config = SchedulerConfig()
        self.problem = problem
        self.surrogate_factory = surrogate_factory
        self.surrogate_bank_factory = surrogate_bank_factory
        self.n_initial = int(n_initial)
        self.max_evaluations = int(max_evaluations)
        self.initial_design = str(initial_design)
        self.acq_maximizer = acq_maximizer or DifferentialEvolutionMaximizer()
        self.acquisition_config = acquisition_config
        self.scheduler_config = scheduler_config
        #: the active :class:`~repro.acquisition.spaces.ProposalSpace`
        #: instance, or ``None`` for the full box — in which case the
        #: maximizer is left unwrapped and the historical RNG stream /
        #: numerics are bitwise untouched
        self.proposal_space = acquisition_config.resolve_proposal_space()
        if self.proposal_space is not None:
            self.acq_maximizer = SubspaceMaximizer(
                self.proposal_space, self.acq_maximizer
            )
        #: the log-space flag resolved against the problem's constraint
        #: count (``AcquisitionConfig.log_space=None`` means "auto")
        self.log_space_acq = acquisition_config.resolve_log_space(
            problem.n_constraints
        )
        self.rng = ensure_rng(seed)
        self.verbose = bool(verbose)
        self.callback = callback
        if name is not None:
            self.algorithm_name = name
        #: last models fitted by :meth:`_propose` (adopted by the study's
        #: streaming proposer so fresh-fit single proposals are not refitted)
        self._last_fitted: _IterationModels | None = None
        self._cache_hits0, self._cache_misses0 = problem.cache_stats

    # -- main loop ---------------------------------------------------------------

    def run(self) -> OptimizationResult:
        """Execute Algorithm 1 (batched or asynchronous form); return the trace."""
        # the study builds on this module; imported here to avoid a cycle
        from repro.bo.study import Study

        return self.run_study(Study.from_optimizer(self))

    def run_study(self, study) -> OptimizationResult:
        """Drive an ask/tell :class:`~repro.bo.study.Study` to its budget.

        The closed-loop entry point: resolves the configured executor,
        pumps the study's initial design and search proposals through it
        (synchronous q-point batches behind a barrier, or the farm's
        refill-on-completion loop for ``async-*`` executors), and returns
        the study's history.  Accepts a resumed study — already-committed
        evaluations are kept and pending trials are re-submitted.
        """
        cfg = self.scheduler_config
        # an executor instance + explicit n_eval_workers is contradictory;
        # make_evaluator raises rather than silently ignoring the count
        evaluator = make_evaluator(cfg.executor, cfg.resolve_pool_workers())
        owns_evaluator = evaluator is not cfg.executor
        try:
            if getattr(evaluator, "async_mode", False):
                self._drive_farm(study, evaluator, cfg.resolve_in_flight())
            elif cfg.farm is not None:
                raise ValueError(
                    "SchedulerConfig.farm requires an asynchronous "
                    f"executor (async-thread/async-process), got "
                    f"{cfg.executor!r}"
                )
            else:
                self._drive_sync(study, evaluator)
        finally:
            if owns_evaluator:
                evaluator.close()
        return study.result

    def _drive_sync(self, study, evaluator) -> None:
        """The synchronous driver: q-point batches behind a barrier."""
        scheduler = EvaluationScheduler(self.problem, evaluator)
        initial = study.start_initial()
        if initial:
            scheduler.run_trials(initial, study)
        # a resumed study may carry in-flight search trials; evaluate them
        # first (in submission order) so the budget completes and the next
        # batch ask sees a clean pending set
        pending = study.pending_trials()
        if pending:
            scheduler.run_trials(pending, study)
        while study.remaining_capacity > 0:
            q = min(self.scheduler_config.q, study.remaining_capacity)
            trials = study.ask(q)
            scheduler.run_trials(trials, study)
            iteration = study.result.records[-1].iteration
            if self.verbose:
                best = study.result.best_objective()
                print(
                    f"[{self.algorithm_name}] iter {iteration:3d} "
                    f"evals {study.result.n_evaluations:4d} best {best:.6g}"
                )
            if self.callback is not None:
                self.callback(iteration, study.result)

    def _drive_farm(self, study, evaluator, n_workers: int) -> None:
        """The asynchronous driver: a single-tenant evaluation farm.

        The initial design evaluates as one deterministic batch;
        afterwards the farm keeps ``n_workers`` simulations in flight,
        asking the study for a replacement per landing.
        ``callback(landing, result)`` fires per landing (the async
        analogue of per-iteration).  ``SchedulerConfig.farm=None`` runs
        the default :class:`~repro.bo.config.FarmConfig` (fixed in-flight
        target, no speculation); elastic sizing, adaptive q and
        speculation are opted into through the scheduler config.
        """
        cfg = self.scheduler_config
        if cfg.async_refit == "fantasy-only" and self.surrogate_bank_factory is None:
            raise ValueError(
                "async_refit='fantasy-only' requires surrogate_bank_factory "
                "(posterior-only absorbs go through the bank); per-target "
                "surrogate factories must use async_refit='full'"
            )
        # the farm package builds on this module; imported here to avoid
        # a cycle
        from repro.farm import EvaluationFarm, FarmStudyDriver

        farm_cfg = cfg.farm or FarmConfig()
        capacity = n_workers
        if farm_cfg.max_in_flight is not None:
            capacity = max(capacity, farm_cfg.max_in_flight)
        if cfg.speculation is not None:
            capacity += cfg.speculation.max_speculative

        def on_commit(trial, evaluation, result):
            landing = result.records[-1].iteration
            if self.verbose:
                best = result.best_objective()
                print(
                    f"[{self.algorithm_name}] landing {landing:3d} "
                    f"evals {result.n_evaluations:4d} best {best:.6g}"
                )
            if self.callback is not None:
                self.callback(landing, result)

        with EvaluationFarm(evaluator, capacity=capacity, clock=cfg.clock) as farm:
            tenant = farm.register(
                str(self.problem.name),
                problem=self.problem,
                weight=farm_cfg.weight,
                max_queue=farm_cfg.max_queue,
            )
            FarmStudyDriver(farm, clock=cfg.clock).run(
                study,
                tenant,
                target=n_workers,
                config=farm_cfg,
                speculation=cfg.speculation,
                on_commit=on_commit,
            )

    # -- helpers -------------------------------------------------------------------

    def _sync_cache_counters(self, result: OptimizationResult):
        hits, misses = self.problem.cache_stats
        result.cache_hits = hits - self._cache_hits0
        result.cache_misses = misses - self._cache_misses0

    def _evaluate_and_record(self, u, result, unit_x, phase):
        """Serial single-point evaluate (legacy path, kept for tests/tools)."""
        evaluation = self.problem.evaluate_unit(u)
        result.append(self.problem.scaler.inverse_transform(u), evaluation, phase=phase)
        unit_x.append(np.asarray(u, dtype=float))
        self._sync_cache_counters(result)

    def _sanitized_targets(self, result: OptimizationResult):
        """Surrogate-ready targets from the committed history.

        Returns ``(objective, constraint_ys, targets)`` where ``targets``
        stacks the objective and every constraint as the ``(T, N)`` matrix
        the bank's :meth:`~repro.core.batched_gp.SurrogateBank.fit`
        consumes.
        """
        objective = _sanitize_targets(result.objectives)
        constraints = result.constraint_matrix
        constraint_ys = [
            _sanitize_targets(constraints[:, i])
            for i in range(self.problem.n_constraints)
        ]
        targets = np.empty((1 + self.problem.n_constraints, objective.shape[0]))
        targets[0] = objective
        for i, y in enumerate(constraint_ys):
            targets[1 + i] = y
        return objective, constraint_ys, targets

    def _fit_surrogates(self, x_unit: np.ndarray, result: OptimizationResult):
        """Fit this iteration's models; returns an :class:`_IterationModels`.

        With a bank factory the objective and every constraint ensemble are
        fitted in ONE batched call; the legacy path invokes the per-target
        factory ``n_constraints + 1`` times.
        """
        objective, constraint_ys, targets = self._sanitized_targets(result)

        if self.surrogate_bank_factory is not None:
            n_targets = 1 + self.problem.n_constraints
            bank = self.surrogate_bank_factory(self.rng, n_targets)
            bank.fit(x_unit, targets)
            return _IterationModels(
                objective=bank.target_model(0),
                constraints=[
                    bank.target_model(1 + i)
                    for i in range(self.problem.n_constraints)
                ],
                bank=bank,
                x=x_unit,
                objective_y=objective,
                constraint_ys=constraint_ys,
            )

        objective_model = self.surrogate_factory(self.rng)
        objective_model.fit(x_unit, objective)
        constraint_models = []
        for y in constraint_ys:
            model = self.surrogate_factory(self.rng)
            model.fit(x_unit, y)
            constraint_models.append(model)
        return _IterationModels(
            objective=objective_model,
            constraints=constraint_models,
            bank=None,
            x=x_unit,
            objective_y=objective,
            constraint_ys=constraint_ys,
        )

    def _make_acquisition(self, fitted: _IterationModels, result: OptimizationResult):
        """Build one acquisition callable over the current posterior.

        The ``"hallucinate"`` pending strategy swaps wEI for the
        optimistic-improvement bound (GP-BUCB criterion) — the hallucinated
        believer updates between picks then act through the variance term.
        """
        acq = self.acquisition_config
        if acq.acquisition == "thompson":
            if fitted.bank is not None:
                from repro.acquisition.thompson import BankThompsonAcquisition

                return BankThompsonAcquisition(fitted.bank, rng=self.rng)
            from repro.acquisition.thompson import ThompsonSamplingAcquisition

            return ThompsonSamplingAcquisition(
                fitted.objective, fitted.constraints, rng=self.rng
            )
        tau = result.best_objective()
        tau = None if not np.isfinite(tau) else tau
        if acq.pending_strategy == "hallucinate":
            # a "beta-t" schedule re-resolves per proposal: t is the
            # committed-evaluation count, so kappa grows ~ sqrt(log t)
            kappa = acq.resolve_hallucinate_kappa(
                self.problem.dim, result.n_evaluations
            )
            return HallucinatedUCB(
                fitted.objective,
                fitted.constraints,
                tau=tau,
                kappa=kappa,
                log_space=self.log_space_acq,
            )
        return WeightedExpectedImprovement(
            fitted.objective,
            fitted.constraints,
            tau=tau,
            log_space=self.log_space_acq,
        )

    def _objective_lipschitz(self, fitted: _IterationModels) -> float:
        """Lipschitz estimate of the objective posterior, cached per fit."""
        if fitted.lipschitz is None:
            if fitted.bank is not None:
                fitted.lipschitz = fitted.bank.estimate_target_lipschitz(0)
            else:
                fitted.lipschitz = estimate_lipschitz(
                    fitted.objective, self.problem.dim
                )
        return fitted.lipschitz

    def _penalized_acquisition(
        self, fitted: _IterationModels, base, pending_units
    ):
        """Wrap ``base`` with local penalties around the pending designs.

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
        pending = np.atleast_2d(np.asarray(pending_units, dtype=float))
        means, variances = fitted.objective.predict(pending)
        finite = fitted.objective_y[np.isfinite(fitted.objective_y)]
        best = float(np.min(finite)) if finite.size else float("nan")
        penalizer = LocalPenalizer(
            pending,
            means,
            variances,
            best=best,
            lipschitz=self._objective_lipschitz(fitted),
        )
        return PenalizedAcquisition(base, penalizer, log_space=self.log_space_acq)

    def _prepare_proposal_space(
        self, x_unit: np.ndarray, result: OptimizationResult
    ) -> None:
        """Point the active proposal subspace at the current incumbent.

        A no-op on the full-space path.  ``x_unit`` rows parallel
        ``result.records`` (both append per committed evaluation), so the
        incumbent record's index addresses its unit design directly.
        """
        if self.proposal_space is None:
            return
        idx = incumbent_index(result)
        self.acq_maximizer.set_incumbent(
            None if idx is None or idx >= len(x_unit) else x_unit[idx]
        )

    def _propose(self, x_unit: np.ndarray, result: OptimizationResult) -> np.ndarray:
        """Single-point proposal (the q=1 fast path; original loop semantics)."""
        fitted = self._fit_surrogates(x_unit, result)
        acquisition_fn = self._make_acquisition(fitted, result)
        self._prepare_proposal_space(x_unit, result)
        proposal = self.acq_maximizer.maximize(
            acquisition_fn, self.problem.dim, self.rng
        )
        if self._is_duplicate(proposal, x_unit):
            proposal = self._resample_non_duplicate(x_unit)
        self._last_fitted = fitted
        return proposal

    def _propose_batch(
        self, x_unit: np.ndarray, result: OptimizationResult, q: int
    ) -> list[np.ndarray]:
        """Greedy q-point proposal with fantasy updates between picks.

        One surrogate fit serves all q picks.  On the wEI path the pending
        strategy decides how batch-mates shape pick ``j+1``: ``"fantasy"``
        and ``"hallucinate"`` condition the models on each pick (bank:
        posterior-only ``fantasize``; legacy models:
        :class:`FantasyModelSet` — hallucination always lies the believer
        mean), while ``"penalize"`` leaves the posterior clean and wraps
        the stage acquisition with local penalties around the picks so
        far.  The Thompson path simply draws q independent posterior
        functions.  Every pick also passes the duplicate filter against
        both the evaluated data and its own batch-mates.
        """
        fitted = self._fit_surrogates(x_unit, result)
        acq = self.acquisition_config
        if acq.acquisition == "wei" and acq.pending_strategy == "penalize":
            base = self._make_acquisition(fitted, result)

            def stage_acquisition(j: int, picks: list[np.ndarray]):
                if not picks:
                    return base
                return self._penalized_acquisition(fitted, base, picks)

        else:
            fantasy_set = None
            if acq.acquisition == "wei" and fitted.bank is None:
                fantasy_set = FantasyModelSet(
                    fitted.x,
                    fitted.objective,
                    fitted.objective_y,
                    fitted.constraints,
                    fitted.constraint_ys,
                )

            def stage_acquisition(j: int, picks: list[np.ndarray]):
                if j > 0 and acq.acquisition == "wei":
                    self._apply_fantasy(fitted, fantasy_set, picks[-1])
                return self._make_acquisition(fitted, result)

        def deduplicate(pick: np.ndarray, picks: list[np.ndarray]):
            known = np.vstack([x_unit, *[p[None, :] for p in picks]])
            if self._is_duplicate(pick, known):
                pick = self._resample_non_duplicate(known)
            return pick

        self._prepare_proposal_space(x_unit, result)
        return self.acq_maximizer.maximize_batch(
            stage_acquisition,
            q,
            self.problem.dim,
            self.rng,
            postprocess=deduplicate,
        )

    def _apply_fantasy(self, fitted: _IterationModels, fantasy_set, pending):
        """Condition the iteration's models on one pending pick.

        Under ``pending_strategy="hallucinate"`` the lie is always the
        believer (posterior-mean) value — by definition a hallucinated
        observation leaves the mean surface untouched and only collapses
        variance at the pending point.
        """
        acq = self.acquisition_config
        strategy = (
            "believer" if acq.pending_strategy == "hallucinate" else acq.fantasy
        )
        obj_lie, cons_lies = fantasy_lies(
            fitted.objective, fitted.constraints, pending,
            fitted.objective_y, strategy,
        )
        if fitted.bank is not None:
            fitted.bank.fantasize(pending, np.array([obj_lie, *cons_lies]))
        else:
            fantasy_set.add_fantasy(pending, obj_lie, cons_lies)

    def _is_duplicate(self, proposal: np.ndarray, x_unit: np.ndarray) -> bool:
        dists = np.max(np.abs(x_unit - proposal[None, :]), axis=1)
        return bool(np.any(dists < self.acquisition_config.duplicate_tol))

    _MAX_RESAMPLE_TRIES = 32

    def _resample_non_duplicate(self, x_unit: np.ndarray) -> np.ndarray:
        """Draw a random replacement point that is itself not a duplicate.

        A single uniform draw can land on an already-evaluated design
        (likely with coarse ``duplicate_tol`` or a near-exhausted discrete
        region), which would waste a simulation on a known point; retry a
        bounded number of times and keep the final draw regardless.
        """
        for _ in range(self._MAX_RESAMPLE_TRIES):
            proposal = self.rng.uniform(0.0, 1.0, size=self.problem.dim)
            if not self._is_duplicate(proposal, x_unit):
                return proposal
        return proposal


def _sanitize_targets(y: np.ndarray) -> np.ndarray:
    """Make simulation outputs digestible for surrogate fitting.

    Two pathologies appear in circuit data: non-finite values from failed
    simulations (mapped to "much worse than anything seen", preserving the
    ranking) and extreme finite outliers from degenerate designs (a broken
    bias point can measure orders of magnitude off), which wreck target
    normalization.  Outliers are winsorized at ``median +- 10 IQR`` — far
    beyond any informative variation, so ordinary targets pass unchanged.
    """
    y = np.asarray(y, dtype=float).copy()
    bad = ~np.isfinite(y)
    if np.any(bad):
        good = y[~bad]
        if good.size == 0:
            y[...] = 0.0
            return y
        span = float(np.ptp(good))
        worst = float(np.max(good))
        y[bad] = worst + max(span, 1.0)
    q25, q50, q75 = np.percentile(y, [25.0, 50.0, 75.0])
    iqr = q75 - q25
    if iqr > 0.0:
        y = np.clip(y, q50 - 10.0 * iqr, q50 + 10.0 * iqr)
    return y


def _sanitize_new_target(value: float, existing: np.ndarray) -> float:
    """:func:`_sanitize_targets` for a single late-arriving value.

    The async ``"fantasy-only"`` policy absorbs landings one at a time;
    the same two pathologies apply (non-finite failed simulations,
    degenerate outliers), judged against the already-sanitized committed
    targets.  The periodic full refit re-sanitizes the whole vector, so
    any drift between the incremental and the batch clipping is bounded
    by one refit period.
    """
    existing = np.asarray(existing, dtype=float)
    value = float(value)
    if not np.isfinite(value):
        if existing.size == 0:
            return 0.0
        span = float(np.ptp(existing))
        return float(np.max(existing)) + max(span, 1.0)
    if existing.size:
        q25, q50, q75 = np.percentile(existing, [25.0, 50.0, 75.0])
        iqr = q75 - q25
        if iqr > 0.0:
            value = float(np.clip(value, q50 - 10.0 * iqr, q50 + 10.0 * iqr))
    return value
