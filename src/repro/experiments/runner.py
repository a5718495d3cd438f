"""Multi-run statistics harness.

The paper averages every algorithm over repeated runs (10 for the op-amp,
12 for the charge pump) and reports, per algorithm: performance metrics of
the best design, the spread (mean/median/best/worst) of the best objective
across runs, the average number of simulations, and the success count.
This module produces exactly those statistics from lists of
:class:`~repro.bo.history.OptimizationResult`.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.bo.config import AcquisitionConfig, SchedulerConfig, SurrogateConfig
from repro.bo.history import OptimizationResult


@dataclass
class AlgorithmSummary:
    """Paper-style summary of repeated runs of one algorithm."""

    algorithm: str
    n_runs: int
    n_success: int
    best_objectives: np.ndarray  # per successful run
    sims_to_best: np.ndarray  # per successful run
    best_run_metrics: dict = field(default_factory=dict)

    @property
    def mean(self) -> float:
        """Mean best objective across successful runs."""
        return float(np.mean(self.best_objectives)) if self.n_success else np.nan

    @property
    def median(self) -> float:
        """Median best objective across successful runs."""
        return float(np.median(self.best_objectives)) if self.n_success else np.nan

    @property
    def best(self) -> float:
        """Best (lowest) objective over all runs."""
        return float(np.min(self.best_objectives)) if self.n_success else np.nan

    @property
    def worst(self) -> float:
        """Worst (highest) best-objective over successful runs."""
        return float(np.max(self.best_objectives)) if self.n_success else np.nan

    @property
    def avg_sims(self) -> float:
        """Paper's ``Avg. # Sim``: mean simulations to reach the final best."""
        return float(np.mean(self.sims_to_best)) if self.n_success else np.nan

    @property
    def success_rate(self) -> str:
        """``#Success`` in the paper's ``k/n`` format."""
        return f"{self.n_success}/{self.n_runs}"


def _execute_run(make_optimizer, run_seed: int) -> OptimizationResult:
    """One repeat, executable in a worker process (module-level for pickle)."""
    return make_optimizer(run_seed).run()


def run_repeats(
    make_optimizer,
    n_repeats: int,
    seed: int = 0,
    verbose: bool = False,
    n_workers: int | None = None,
) -> list[OptimizationResult]:
    """Run ``make_optimizer(seed_i)`` for ``n_repeats`` independent seeds.

    ``make_optimizer`` receives a distinct integer seed per repeat and must
    return an object with ``run() -> OptimizationResult``.

    ``n_workers`` opts into a process pool: repeats are independent (each
    run is fully determined by its own seed), so with ``n_workers > 1``
    they execute concurrently and are returned in the same seed order the
    serial path uses — the per-seed streams, and therefore the evaluation
    traces, are identical either way.  One caveat: when ``make_optimizer``
    closes over a *shared* ``Problem`` instance, its memoization cache
    accumulates across runs serially but is copied per worker in parallel,
    so the informational ``cache_hits``/``cache_misses`` counters on the
    results may differ between the two modes (the recorded evaluations do
    not — the simulators are deterministic).  ``make_optimizer`` must be
    picklable for the pool (a module-level function or
    ``functools.partial``, not a lambda); an unpicklable factory falls
    back to the serial path with a warning.
    """
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=n_repeats)]

    n_workers = 1 if n_workers is None else int(n_workers)
    if n_workers > 1:
        try:
            pickle.dumps(make_optimizer)
        except Exception:
            warnings.warn(
                "make_optimizer is not picklable; running repeats serially "
                "(use a module-level factory to enable n_workers)",
                stacklevel=2,
            )
            n_workers = 1

    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=min(n_workers, n_repeats)) as pool:
            futures = {
                pool.submit(_execute_run, make_optimizer, run_seed): i
                for i, run_seed in enumerate(seeds)
            }
            # stream progress as runs land; results return in seed order
            results: list[OptimizationResult | None] = [None] * n_repeats
            outstanding = set(futures)
            try:
                while outstanding:
                    done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                    for future in done:
                        i = futures[future]
                        results[i] = future.result()
                        if verbose:
                            result = results[i]
                            print(
                                f"  run {i + 1}/{n_repeats}: "
                                f"best={result.best_objective():.6g} "
                                f"evals={result.n_evaluations} success={result.success}"
                            )
            except BaseException:
                # a failed repeat must not block shutdown on every other
                # still-running repeat: drop the queued ones and re-raise
                for future in outstanding:
                    future.cancel()
                raise
        return results

    results = []
    for i, run_seed in enumerate(seeds):
        optimizer = make_optimizer(run_seed)
        result = optimizer.run()
        results.append(result)
        if verbose:
            print(
                f"  run {i + 1}/{n_repeats}: best={result.best_objective():.6g} "
                f"evals={result.n_evaluations} success={result.success}"
            )
    return results


def nnbo_configs(config):
    """Build NN-BO's typed configs from a table experiment config.

    The Table I/II configs carry the same flat fields (budgets, model
    sizes, scheduler knobs); this maps them onto the
    (:class:`SurrogateConfig`, :class:`AcquisitionConfig`,
    :class:`SchedulerConfig`) triple the optimizer constructors take.
    """
    surrogate = SurrogateConfig(
        n_ensemble=config.n_ensemble,
        hidden_dims=config.hidden_dims,
        n_features=config.n_features,
        epochs=config.epochs,
        backend=getattr(config, "backend", "numpy"),
        device=getattr(config, "device", None),
    )
    acquisition = AcquisitionConfig(
        pending_strategy=config.pending_strategy,
        proposal_space=getattr(config, "proposal_space", "full"),
    )
    scheduler = SchedulerConfig(
        q=config.q,
        executor=config.eval_executor,
        n_eval_workers=config.n_eval_workers,
        async_refit=config.async_refit,
    )
    return surrogate, acquisition, scheduler


def add_scheduler_arguments(parser) -> None:
    """The evaluation-scheduler argparse options shared by the table drivers.

    One definition keeps the Table I and Table II CLIs accepting the same
    flags with the same help text; pair with
    :func:`apply_scheduler_arguments`.
    """
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for the repeated runs of each algorithm",
    )
    parser.add_argument(
        "--q", type=int, default=None,
        help="NN-BO designs proposed per iteration (batch acquisition)",
    )
    parser.add_argument(
        "--eval-executor",
        choices=("serial", "thread", "process", "async-thread", "async-process"),
        default=None,
        help="where NN-BO's simulations run; async-* switches to the "
        "refill-on-completion scheduler (no batch barrier)",
    )
    parser.add_argument(
        "--eval-workers", type=int, default=None,
        help="worker count for the evaluation executor (default: q, or "
        "the capped host core count for async executors)",
    )
    parser.add_argument(
        "--async-refit", choices=("full", "fantasy-only"), default=None,
        help="async surrogate policy per landing: full refit vs. "
        "posterior-only absorb with periodic warm refits",
    )
    parser.add_argument(
        "--pending-strategy",
        choices=("fantasy", "penalize", "hallucinate"),
        default=None,
        help="how NN-BO's batch-mate / in-flight designs shape each "
        "proposal: fantasy lies (default), local penalization on the "
        "clean posterior, or hallucinated-UCB believer conditioning",
    )
    parser.add_argument(
        "--proposal-space",
        choices=("full", "line", "trust-region"),
        default=None,
        help="where NN-BO's inner-loop maximizer searches: the full unit "
        "box (default), a random 1-D line through the incumbent "
        "(cheap at high dimension), or a TuRBO-style trust region",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "numpy", "torch", "cupy"),
        default=None,
        help="array backend for NN-BO's batched surrogate engine "
        "(numpy is the bitwise-reference default; torch/cupy need the "
        "matching package installed; auto picks the first available "
        "accelerator)",
    )
    parser.add_argument(
        "--device", default=None,
        help="accelerator device for the array backend (e.g. cuda:0)",
    )
    parser.add_argument(
        "--sim-backend",
        choices=("mna", "ngspice"),
        default=None,
        help="circuit simulator the testbench drives: the built-in MNA "
        "engine (bitwise-reproducible default) or an external ngspice "
        "binary (falls back to MNA with a warning when not installed)",
    )


def apply_scheduler_arguments(args, config) -> None:
    """Copy the :func:`add_scheduler_arguments` flags onto a table config.

    Only explicitly passed flags override the config's preset defaults.
    """
    if args.workers is not None:
        config.n_workers = args.workers
    if args.q is not None:
        config.q = args.q
    if args.eval_executor is not None:
        config.eval_executor = args.eval_executor
    if args.eval_workers is not None:
        config.n_eval_workers = args.eval_workers
    if args.async_refit is not None:
        config.async_refit = args.async_refit
    if args.pending_strategy is not None:
        config.pending_strategy = args.pending_strategy
    if args.proposal_space is not None:
        config.proposal_space = args.proposal_space
    if args.backend is not None:
        config.backend = args.backend
    if args.device is not None:
        config.device = args.device
    if args.sim_backend is not None:
        config.sim_backend = args.sim_backend


def summarize(results: list[OptimizationResult]) -> AlgorithmSummary:
    """Aggregate repeated runs into an :class:`AlgorithmSummary`."""
    if not results:
        raise ValueError("no results to summarize")
    algorithm = results[0].algorithm
    successes = [r for r in results if r.success]
    best_objectives = np.array([r.best_objective() for r in successes])
    sims = np.array([r.n_sims_to_best() for r in successes], dtype=float)
    best_run_metrics: dict = {}
    if successes:
        best_run = min(successes, key=lambda r: r.best_objective())
        record = best_run.best_feasible()
        if record is not None:
            best_run_metrics = dict(record.evaluation.metrics)
    return AlgorithmSummary(
        algorithm=algorithm,
        n_runs=len(results),
        n_success=len(successes),
        best_objectives=best_objectives,
        sims_to_best=sims,
        best_run_metrics=best_run_metrics,
    )
