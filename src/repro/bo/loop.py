"""Generic constrained surrogate-based Bayesian optimization (Algorithm 1).

The driver is deliberately surrogate-agnostic: the paper's method and the
WEIBO baseline differ *only* in the surrogate factory they plug in
(NN-feature-GP ensemble bank vs. explicit-kernel GP), exactly mirroring
the paper's experimental control.

:class:`SurrogateBO` holds the validated configuration (surrogate
factories, typed configs, maximizer, proposal space, RNG) and the closed
loop: ``run()`` builds a :class:`~repro.bo.study.Study`, pumps its
``ask``/``tell`` cycle through the configured evaluation executor, and
returns the study's history.  Proposals are made by the study's
:class:`~repro.bo.proposer.Proposer` (fit, acquisition, pending-point
conditioning, maximization, duplicate handling), so driving a study
manually reproduces ``run()`` bitwise.

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

import numpy as np

from repro.acquisition.maximize import (
    AcquisitionMaximizer,
    DifferentialEvolutionMaximizer,
)
from repro.acquisition.spaces import SubspaceMaximizer
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
        ``async_refit="fantasy-only"`` needs ``surrogate_bank_factory``.
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
        if (
            scheduler_config.async_refit == "fantasy-only"
            and surrogate_bank_factory is None
        ):
            raise ValueError(
                "async_refit='fantasy-only' requires surrogate_bank_factory "
                "(posterior-only absorbs go through the bank); per-target "
                "surrogate factories must use async_refit='full'"
            )
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
