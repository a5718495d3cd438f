"""Generic constrained surrogate-based Bayesian optimization (Algorithm 1).

The driver is deliberately surrogate-agnostic: the paper's method and the
WEIBO baseline differ *only* in the surrogate factory they plug in
(NN-feature-GP ensemble bank vs. explicit-kernel GP), exactly mirroring
the paper's experimental control.

:class:`NNBO` is the paper's method: the driver with the ensemble bank
of a :class:`~repro.bo.config.SurrogateConfig`.  Each iteration builds
K = 5 independently initialized neural-feature GPs per modelled quantity
(one :class:`~repro.core.batched_gp.SurrogateBank` slice each), trains
them by marginal-likelihood back-propagation, combines them by moment
matching (eq. 13) and maximizes the wEI acquisition (eq. 7).

:class:`SurrogateBO` holds the validated configuration (surrogate
factories, typed configs, maximizer, proposal space, RNG) and the closed
loop: ``run()`` builds a :class:`~repro.bo.study.Study`, pumps its
``ask``/``tell`` cycle through a single-tenant evaluation farm
(:mod:`repro.farm`) over the configured executor, and returns the
study's history.  Proposals are made by the study's
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
3. submit the batch to the farm and tell its simulations to the study
   in batch order — the next fit waits for the whole batch (the
   barrier) — recording per-candidate provenance in the history.

``q=1`` with the serial executor reproduces the original single-point
loop bitwise (pinned by ``tests/bo/test_scheduler.py``); the
``"async-*"`` executors switch to the farm's refill-on-completion loop
(pinned by ``tests/bo/test_async_scheduler.py`` and ``tests/farm/``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.acquisition.fantasy import PerTargetBank
from repro.acquisition.maximize import (
    AcquisitionMaximizer,
    DifferentialEvolutionMaximizer,
)
from repro.bo.config import (
    ASYNC_REFIT_POLICIES,
    AcquisitionConfig,
    FarmConfig,
    SchedulerConfig,
    SurrogateConfig,
)
from repro.bo.history import OptimizationResult
from repro.bo.problem import Problem
from repro.utils.rng import ensure_rng

__all__ = [
    "ASYNC_REFIT_POLICIES",
    "NNBO",
    "SurrogateBO",
]


class SurrogateBO:
    """Constrained Bayesian optimization with pluggable surrogates.

    Parameters
    ----------
    problem:
        The :class:`~repro.bo.problem.Problem` to minimize.
    surrogate_factory:
        Callable ``(rng) -> model`` returning a fresh GP-style surrogate
        with ``fit(x, y)`` and ``predict(x) -> (mean, var)``, one per
        modelled quantity per fit (the WEIBO/GP baselines).  The
        constructor puts these per-target models behind the bank surface
        (:class:`~repro.acquisition.fantasy.PerTargetBank`).  They serve
        the wEI family only: Thompson sampling draws weight-space posterior
        functions, which needs ``surrogate_bank_factory``.
    surrogate_bank_factory:
        Callable ``(rng, n_targets) -> bank`` returning a fresh
        :class:`~repro.core.batched_gp.SurrogateBank`: ONE batched fit of
        the objective and all constraints together (the paper method's
        hot path).  Pass exactly one of the two factories.
    n_initial:
        Size of the random initial design (Algorithm 1, line 1).
    max_evaluations:
        Total simulation budget including the initial design.
    initial_design:
        ``"lhs"`` (default), ``"random"`` or ``"sobol"``.
    acq_maximizer:
        Full-box inner-loop engine; defaults to
        :class:`DifferentialEvolutionMaximizer`.  A ``"line"`` or
        ``"trust-region"`` proposal space is the maximizer itself (it
        runs its own engine), so combining it with ``acq_maximizer`` is a
        ``ValueError``.
    acquisition_config:
        An :class:`~repro.bo.config.AcquisitionConfig`: acquisition family
        (``"wei"``/``"thompson"``; Thompson needs
        ``surrogate_bank_factory``), log-space evaluation, duplicate
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
        if (surrogate_factory is None) == (surrogate_bank_factory is None):
            raise ValueError(
                "provide exactly one of surrogate_factory and "
                "surrogate_bank_factory"
            )
        if acquisition_config is None:
            acquisition_config = AcquisitionConfig()
        if scheduler_config is None:
            scheduler_config = SchedulerConfig()
        if acquisition_config.acquisition == "thompson" and surrogate_factory is not None:
            raise ValueError(
                "acquisition='thompson' requires surrogate_bank_factory "
                "(Thompson draws weight-space posterior functions from the "
                "NN-GP bank); a per-target surrogate_factory serves "
                "acquisition='wei' only"
            )
        if acq_maximizer is not None and acquisition_config.proposal_space != "full":
            raise ValueError(
                f"acq_maximizer would be ignored under proposal_space="
                f"{acquisition_config.proposal_space!r}: a proposal space "
                "runs its own engine; pass one or the other"
            )
        if (
            scheduler_config.async_refit == "fantasy-only"
            and surrogate_factory is not None
        ):
            raise ValueError(
                "async_refit='fantasy-only' requires surrogate_bank_factory "
                "(posterior-only absorbs go through the bank); per-target "
                "surrogate factories must use async_refit='full'"
            )
        self.problem = problem
        self.surrogate_factory = surrogate_factory
        if surrogate_factory is not None:
            surrogate_bank_factory = partial(PerTargetBank, surrogate_factory)
        self.surrogate_bank_factory = surrogate_bank_factory
        self.n_initial = int(n_initial)
        self.max_evaluations = int(max_evaluations)
        self.initial_design = str(initial_design)
        self.acquisition_config = acquisition_config
        self.scheduler_config = scheduler_config
        #: the active :class:`~repro.acquisition.spaces.ProposalSpace`
        #: instance (which is then the maximizer), or ``None`` for the full
        #: box, searched by the given maximizer or DE
        self.proposal_space = acquisition_config.resolve_proposal_space()
        self.acq_maximizer = (
            self.proposal_space or acq_maximizer or DifferentialEvolutionMaximizer()
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

        The closed-loop entry point: runs the study as the one tenant of
        an evaluation farm (:mod:`repro.farm`) over the configured
        executor — q-point batches behind a barrier, or the
        refill-on-completion loop for the ``async-*`` specs — and returns
        the study's history.  Accepts a resumed study — already-committed
        evaluations are kept and pending trials are re-submitted.
        ``callback(iteration, result)`` fires once per search batch (per
        landing in the refill loop).  ``SchedulerConfig.farm=None`` runs
        the refill loop under the default :class:`~repro.bo.config.
        FarmConfig` (fixed in-flight target, no speculation).
        """
        cfg = self.scheduler_config
        if cfg.farm is not None and not cfg.is_async:
            raise ValueError(
                "SchedulerConfig.farm requires an asynchronous "
                f"executor (async-thread/async-process), got "
                f"{cfg.executor!r}"
            )
        # the farm package builds on this module; imported here to avoid
        # a cycle
        from repro.farm import EvaluationFarm, FarmStudyDriver

        def report(result):
            iteration = result.records[-1].iteration
            if self.verbose:
                best = result.best_objective()
                print(
                    f"[{self.algorithm_name}] iter {iteration:3d} "
                    f"evals {result.n_evaluations:4d} best {best:.6g}"
                )
            if self.callback is not None:
                self.callback(iteration, result)

        farm_cfg = cfg.farm or FarmConfig()
        capacity = None  # the executor's worker count
        if cfg.is_async:
            n_workers = cfg.resolve_in_flight()
            capacity = max(n_workers, farm_cfg.max_in_flight or 0)
            if cfg.speculation is not None:
                capacity += cfg.speculation.max_speculative
        # an executor instance + explicit n_eval_workers is contradictory;
        # the farm raises rather than silently ignoring the count
        with EvaluationFarm(
            cfg.executor,
            capacity=capacity,
            n_workers=cfg.resolve_pool_workers(),
            clock=cfg.clock,
        ) as farm:
            tenant = farm.register(
                str(self.problem.name),
                problem=self.problem,
                weight=farm_cfg.weight,
                max_queue=farm_cfg.max_queue,
            )
            driver = FarmStudyDriver(farm, clock=cfg.clock)
            if cfg.is_async:
                driver.run(
                    study,
                    tenant,
                    target=n_workers,
                    config=farm_cfg,
                    speculation=cfg.speculation,
                    on_commit=lambda trial, evaluation, result: report(result),
                )
            else:
                driver.run_batches(study, tenant, q=cfg.q, on_batch=report)
        return study.result


class NNBO(SurrogateBO):
    """Bayesian optimization using the neural-network GP (paper Algorithm 1).

    Parameters mirror the paper's experimental setup; Table I uses
    ``n_initial=30, max_evaluations=100`` and Table II
    ``n_initial=100, max_evaluations=790`` with ``n_ensemble=5``.

    Parameters
    ----------
    problem:
        Constrained sizing problem (eq. 1).
    surrogate:
        A :class:`~repro.bo.config.SurrogateConfig` with the ensemble
        hyper-parameters (K, architecture, trainer settings, array
        backend).  Every iteration fits the objective and all constraint
        ensembles as one stacked tensor program
        (:class:`~repro.core.batched_gp.SurrogateBank`), for wEI and
        Thompson sampling alike.
    acquisition_config, scheduler_config:
        Driver-level configs, as on :class:`SurrogateBO`.
    acq_maximizer, seed, verbose, callback:
        As on :class:`SurrogateBO`.
    """

    algorithm_name = "NN-BO"

    def __init__(
        self,
        problem: Problem,
        n_initial: int = 30,
        max_evaluations: int = 100,
        *,
        acq_maximizer=None,
        seed=None,
        verbose: bool = False,
        callback=None,
        initial_design: str = "lhs",
        name: str | None = None,
        surrogate: SurrogateConfig | None = None,
        acquisition_config: AcquisitionConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
    ):
        if surrogate is None:
            surrogate = SurrogateConfig()
        self.surrogate_config = surrogate
        super().__init__(
            problem,
            n_initial=n_initial,
            max_evaluations=max_evaluations,
            initial_design=initial_design,
            name=name,
            acq_maximizer=acq_maximizer,
            surrogate_bank_factory=surrogate.bank_factory(problem.dim),
            acquisition_config=acquisition_config,
            scheduler_config=scheduler_config,
            seed=seed,
            verbose=verbose,
            callback=callback,
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
