"""Multi-run statistics harness and the paper-table driver.

The paper averages every algorithm over repeated runs (10 for the op-amp,
12 for the charge pump) and reports, per algorithm: performance metrics of
the best design, the spread (mean/median/best/worst) of the best objective
across runs, the average number of simulations, and the success count.
This module produces exactly those statistics from lists of
:class:`~repro.bo.history.OptimizationResult`.

Tables I and II run the same procedure on different testbenches: a
:class:`TableConfig` preset holds a table's testbench, budgets and NN-BO's
typed configs, and :func:`table_main` is the command line both tables
share (``repro.experiments.table1`` / ``table2`` keep only their presets,
row labels and titles).
"""

from __future__ import annotations

import argparse
import pickle
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo import NNBO
from repro.bo.config import AcquisitionConfig, SchedulerConfig, SurrogateConfig
from repro.bo.history import OptimizationResult
from repro.experiments.tables import render_table


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


#: the paper's per-algorithm statistics, in table row order
STATISTIC_ROWS = ("mean", "median", "best", "worst", "Avg. # Sim", "# Success")


def statistic_rows(summary: AlgorithmSummary, sign: float = 1.0) -> dict:
    """The :data:`STATISTIC_ROWS` values of one algorithm's column.

    ``sign=-1`` reports a maximized performance whose objective is its
    negative (the op-amp's GAIN): the flip alone maps the lowest objective
    (``summary.best``) to the highest performance.
    """
    values = (
        sign * summary.mean,
        sign * summary.median,
        sign * summary.best,
        sign * summary.worst,
        summary.avg_sims,
        summary.success_rate,
    )
    return dict(zip(STATISTIC_ROWS, values))


@dataclass(frozen=True)
class TableConfig:
    """One paper table's experiment: testbench, budgets and NN-BO's configs.

    ``problem`` is the testbench class, built fresh for every run from
    ``problem_kwargs`` (plus ``sim_backend`` unless they name one).
    NN-BO and WEIBO spend ``bo_budget`` simulations, GASPAD
    ``gaspad_budget`` and DE ``de_budget``; only NN-BO takes the typed
    ``surrogate`` / ``acquisition`` / ``scheduler`` configs (batch size,
    evaluation executor, async refit policy, pending-point strategy,
    proposal space, array backend).  ``n_workers`` parallelizes the
    repeated runs of each algorithm across a process pool.  Presets are
    frozen: derive variants with :func:`dataclasses.replace`.
    """

    problem: type
    n_repeats: int
    n_initial: int
    bo_budget: int
    gaspad_budget: int
    de_budget: int
    surrogate: SurrogateConfig = SurrogateConfig()
    acquisition: AcquisitionConfig = AcquisitionConfig()
    scheduler: SchedulerConfig = SchedulerConfig()
    algorithms: tuple = ("NN-BO", "WEIBO", "GASPAD", "DE")
    seed: int = 2019
    verbose: bool = False
    n_workers: int | None = None
    sim_backend: str = "mna"
    problem_kwargs: dict = field(default_factory=dict)


def make_problem(config: TableConfig):
    """Fresh testbench instance (stateless across runs except counters)."""
    kwargs = dict(config.problem_kwargs)
    kwargs.setdefault("sim_backend", config.sim_backend)
    return config.problem(**kwargs)


def make_optimizer(name: str, config: TableConfig, problem, seed: int):
    """Construct one of the four compared algorithms with its budget."""
    if name == "NN-BO":
        return NNBO(
            problem,
            n_initial=config.n_initial,
            max_evaluations=config.bo_budget,
            surrogate=config.surrogate,
            acquisition_config=config.acquisition,
            scheduler_config=config.scheduler,
            seed=seed,
        )
    if name == "WEIBO":
        return WEIBO(
            problem,
            n_initial=config.n_initial,
            max_evaluations=config.bo_budget,
            seed=seed,
        )
    if name == "GASPAD":
        return GASPAD(
            problem,
            n_initial=config.n_initial,
            pop_size=min(20, config.n_initial),
            max_evaluations=config.gaspad_budget,
            seed=seed,
        )
    if name == "DE":
        return DifferentialEvolution(
            problem,
            pop_size=50 if config.de_budget >= 500 else 15,
            max_evaluations=config.de_budget,
            seed=seed,
        )
    raise ValueError(f"unknown algorithm {name!r}")


@dataclass
class OptimizerFactory:
    """Picklable per-seed optimizer factory (one per algorithm column).

    Lambdas cannot cross process boundaries; this module-level callable
    pickles cleanly, so ``run_repeats(n_workers=...)`` can ship it to pool
    workers and the repeated runs parallelize.
    """

    name: str
    config: TableConfig

    def __call__(self, seed: int):
        return make_optimizer(self.name, self.config, make_problem(self.config), seed)


def run_experiment(config: TableConfig, label: str, to_column) -> dict[str, dict]:
    """Run all configured algorithms; returns ``{algorithm: column}``.

    ``to_column`` maps each algorithm's :class:`AlgorithmSummary` to its
    table column; ``label`` tags the progress lines (``[table1] ...``).
    """
    columns: dict[str, dict] = {}
    for name in config.algorithms:
        if config.verbose:
            print(f"[{label}] running {name} x{config.n_repeats}")
        results = run_repeats(
            OptimizerFactory(name, config),
            n_repeats=config.n_repeats,
            seed=config.seed,
            verbose=config.verbose,
            n_workers=config.n_workers,
        )
        columns[name] = to_column(summarize(results))
    return columns


def add_scheduler_arguments(parser) -> None:
    """The evaluation-scheduler argparse options shared by the table drivers.

    Pair with :func:`apply_scheduler_arguments`.
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


def _passed(**flags) -> dict:
    """The flags that were given on the command line (not left at ``None``)."""
    return {name: value for name, value in flags.items() if value is not None}


def apply_scheduler_arguments(args, config: TableConfig) -> TableConfig:
    """A copy of ``config`` with the :func:`add_scheduler_arguments` flags.

    Only explicitly passed flags override the preset's values; NN-BO's
    flags land in its typed configs.
    """
    return replace(
        config,
        surrogate=replace(
            config.surrogate, **_passed(backend=args.backend, device=args.device)
        ),
        acquisition=replace(
            config.acquisition,
            **_passed(
                pending_strategy=args.pending_strategy,
                proposal_space=args.proposal_space,
            ),
        ),
        scheduler=replace(
            config.scheduler,
            **_passed(
                q=args.q,
                executor=args.eval_executor,
                n_eval_workers=args.eval_workers,
                async_refit=args.async_refit,
            ),
        ),
        **_passed(n_workers=args.workers, sim_backend=args.sim_backend),
    )


def table_main(
    argv, *, description: str, label: str, title: str, row_labels, to_column,
    presets: dict,
) -> str:
    """Command line of one paper table; prints and returns the rendered table.

    ``presets`` maps ``--preset`` names to frozen :class:`TableConfig`
    instances (``"quick"`` is the default); ``to_column`` and ``label`` go
    to :func:`run_experiment`, ``title`` and ``row_labels`` to
    :func:`~repro.experiments.tables.render_table`.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--preset", choices=tuple(presets), default="quick",
        help="quick: scaled-down budgets; paper: the full "
        f"{title.split(':')[0]} setup",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    add_scheduler_arguments(parser)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    config = replace(
        apply_scheduler_arguments(args, presets[args.preset]),
        verbose=not args.quiet,
        **_passed(n_repeats=args.repeats, seed=args.seed),
    )
    columns = run_experiment(config, label, to_column)
    table = render_table(title, row_labels, columns)
    print(table)
    return table
