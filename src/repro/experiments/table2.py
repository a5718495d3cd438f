"""Table II experiment: charge-pump sizing over PVT corners (Sec. IV-B).

Setup, following the paper: 36 design variables, 18 PVT corners, five
constraints (eq. 15), FOM of eq. 16 minimized; 100 initial samples,
simulation budgets of 790 (ours/WEIBO reference budget) and ~2000 for the
evolutionary baselines; 12 repeated runs.

Run scaled down::

    python -m repro.experiments.table2 --preset quick

or at paper scale (takes hours — each simulation solves 18 corners)::

    python -m repro.experiments.table2 --preset paper
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace

from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo import NNBO
from repro.circuits.testbenches import ChargePumpProblem
from repro.experiments.runner import (
    add_scheduler_arguments,
    apply_scheduler_arguments,
    nnbo_configs,
    run_repeats,
    summarize,
)
from repro.experiments.tables import render_table

ROW_LABELS = [
    "diff1",
    "diff2",
    "diff3",
    "diff4",
    "deviation",
    "mean",
    "median",
    "best",
    "worst",
    "Avg. # Sim",
    "# Success",
]


@dataclass
class Table2Config:
    """Budgets and model sizes for the Table II experiment.

    ``n_workers`` parallelizes the repeated runs of each algorithm across a
    process pool; ``q``/``eval_executor``/``n_eval_workers`` are the
    batch-proposal knobs of the NN-BO scheduler (q designs per iteration,
    evaluated on the chosen executor — the 18-corner charge-pump
    simulations are the workload batching was built for).  The
    ``async-thread``/``async-process`` executors drop the batch barrier
    entirely (refill-on-completion with ``async_refit`` update policy) —
    the right mode when corner counts make simulation times heterogeneous.
    """

    n_repeats: int = 12
    n_initial: int = 100
    bo_budget: int = 790
    gaspad_budget: int = 2000
    de_budget: int = 2000
    n_ensemble: int = 5
    epochs: int = 300
    hidden_dims: tuple = (50, 50)
    n_features: int = 50
    algorithms: tuple = ("NN-BO", "WEIBO", "GASPAD", "DE")
    seed: int = 2019
    verbose: bool = False
    n_workers: int | None = None
    q: int = 1
    eval_executor: str = "serial"
    n_eval_workers: int | None = None
    async_refit: str = "full"
    pending_strategy: str = "fantasy"
    proposal_space: str = "full"
    backend: str = "numpy"
    device: str | None = None
    sim_backend: str = "mna"
    problem_kwargs: dict = field(default_factory=dict)


QUICK = Table2Config(
    n_repeats=2,
    n_initial=20,
    bo_budget=40,
    gaspad_budget=60,
    de_budget=120,
    n_ensemble=3,
    epochs=80,
    hidden_dims=(32, 32),
    n_features=24,
)

PAPER = Table2Config()


def make_problem(config: Table2Config) -> ChargePumpProblem:
    """Fresh charge-pump testbench."""
    kwargs = dict(config.problem_kwargs)
    kwargs.setdefault("sim_backend", config.sim_backend)
    return ChargePumpProblem(**kwargs)


def make_optimizer(name: str, config: Table2Config, problem, seed: int):
    """Construct one of the four compared algorithms with its budget."""
    if name == "NN-BO":
        surrogate, acquisition, scheduler = nnbo_configs(config)
        return NNBO(
            problem,
            n_initial=config.n_initial,
            max_evaluations=config.bo_budget,
            surrogate=surrogate,
            acquisition_config=acquisition,
            scheduler_config=scheduler,
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


def summary_to_column(summary) -> dict:
    """Map an :class:`AlgorithmSummary` to the Table II row values."""
    metrics = summary.best_run_metrics
    return {
        "diff1": metrics.get("diff1_ua", float("nan")),
        "diff2": metrics.get("diff2_ua", float("nan")),
        "diff3": metrics.get("diff3_ua", float("nan")),
        "diff4": metrics.get("diff4_ua", float("nan")),
        "deviation": metrics.get("deviation_ua", float("nan")),
        "mean": summary.mean,
        "median": summary.median,
        "best": summary.best,
        "worst": summary.worst,
        "Avg. # Sim": summary.avg_sims,
        "# Success": summary.success_rate,
    }


@dataclass
class OptimizerFactory:
    """Picklable per-seed optimizer factory (one per algorithm column).

    Module-level (unlike the lambdas it replaces) so that
    ``run_repeats(n_workers=...)`` can ship it to pool workers.
    """

    name: str
    config: Table2Config

    def __call__(self, seed: int):
        return make_optimizer(self.name, self.config, make_problem(self.config), seed)


def run_experiment(config: Table2Config) -> dict[str, dict]:
    """Run all configured algorithms; returns ``{algorithm: column}``."""
    columns: dict[str, dict] = {}
    for name in config.algorithms:
        if config.verbose:
            print(f"[table2] running {name} x{config.n_repeats}")
        results = run_repeats(
            OptimizerFactory(name, config),
            n_repeats=config.n_repeats,
            seed=config.seed,
            verbose=config.verbose,
            n_workers=config.n_workers,
        )
        columns[name] = summary_to_column(summarize(results))
    return columns


def main(argv=None) -> str:
    """CLI entry point; prints and returns the rendered table."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset", choices=("quick", "paper"), default="quick",
        help="quick: scaled-down budgets; paper: the full Table II setup",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    add_scheduler_arguments(parser)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    # a copy: the flags below must not rewrite the shared module presets
    config = replace(QUICK if args.preset == "quick" else PAPER)
    if args.repeats is not None:
        config.n_repeats = args.repeats
    if args.seed is not None:
        config.seed = args.seed
    apply_scheduler_arguments(args, config)
    config.verbose = not args.quiet
    columns = run_experiment(config)
    table = render_table(
        "Table II: charge-pump optimization (currents in uA, FOM of eq. 16)",
        ROW_LABELS,
        columns,
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
