"""Table I experiment: two-stage op-amp sizing (paper Sec. IV-A).

Setup, following the paper: 10 design variables, specs UGF > 40 MHz and
PM > 60 deg, GAIN maximized; 30 initial samples; simulation budgets of 100
(ours and WEIBO), 200 (GASPAD) and 1100 (DE); repeated runs averaged.

Run scaled down (CI-friendly)::

    python -m repro.experiments.table1 --preset quick

or at paper scale::

    python -m repro.experiments.table1 --preset paper
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace

from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo import NNBO
from repro.circuits.testbenches import TwoStageOpAmpProblem
from repro.experiments.runner import (
    add_scheduler_arguments,
    apply_scheduler_arguments,
    nnbo_configs,
    run_repeats,
    summarize,
)
from repro.experiments.tables import render_table

ROW_LABELS = [
    "UGF (MHz)",
    "PM (deg)",
    "mean",
    "median",
    "best",
    "worst",
    "Avg. # Sim",
    "# Success",
]


@dataclass
class Table1Config:
    """Budgets and model sizes for the Table I experiment.

    ``n_workers`` parallelizes the repeated runs of each algorithm across a
    process pool; ``q``/``eval_executor``/``n_eval_workers`` are the
    batch-proposal knobs of the NN-BO scheduler (q designs per iteration,
    evaluated on the chosen executor).  The ``async-thread`` /
    ``async-process`` executors switch NN-BO to the refill-on-completion
    loop (``n_eval_workers`` in-flight simulations, ``async_refit``
    choosing full vs. fantasy-only surrogate updates per landing).
    """

    n_repeats: int = 10
    n_initial: int = 30
    bo_budget: int = 100
    gaspad_budget: int = 200
    de_budget: int = 1100
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


QUICK = Table1Config(
    n_repeats=2,
    n_initial=12,
    bo_budget=30,
    gaspad_budget=45,
    de_budget=120,
    n_ensemble=3,
    epochs=100,
    hidden_dims=(24, 24),
    n_features=20,
)

PAPER = Table1Config()


def make_problem(config: Table1Config) -> TwoStageOpAmpProblem:
    """Fresh testbench instance (stateless across runs except counters)."""
    kwargs = dict(config.problem_kwargs)
    kwargs.setdefault("sim_backend", config.sim_backend)
    return TwoStageOpAmpProblem(**kwargs)


def make_optimizer(name: str, config: Table1Config, problem, seed: int):
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
    """Map an :class:`AlgorithmSummary` to the Table I row values.

    The objective is ``-GAIN`` (dB); rows report GAIN, so signs flip and
    mean/worst swap roles relative to the raw minimization statistics.
    """
    metrics = summary.best_run_metrics
    return {
        "UGF (MHz)": metrics.get("ugf_hz", float("nan")) / 1e6,
        "PM (deg)": metrics.get("pm_deg", float("nan")),
        "mean": -summary.mean,
        "median": -summary.median,
        "best": -summary.best,
        "worst": -summary.worst,
        "Avg. # Sim": summary.avg_sims,
        "# Success": summary.success_rate,
    }


@dataclass
class OptimizerFactory:
    """Picklable per-seed optimizer factory (one per algorithm column).

    Lambdas cannot cross process boundaries, which kept the table drivers
    serial even after ``run_repeats`` grew ``n_workers``; this module-level
    callable pickles cleanly, so repeated runs parallelize.
    """

    name: str
    config: Table1Config

    def __call__(self, seed: int):
        return make_optimizer(self.name, self.config, make_problem(self.config), seed)


def run_experiment(config: Table1Config) -> dict[str, dict]:
    """Run all configured algorithms; returns ``{algorithm: column}``."""
    columns: dict[str, dict] = {}
    for name in config.algorithms:
        if config.verbose:
            print(f"[table1] running {name} x{config.n_repeats}")
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
        help="quick: scaled-down budgets; paper: the full Table I setup",
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
        "Table I: two-stage op-amp optimization (GAIN in dB)",
        ROW_LABELS,
        columns,
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
