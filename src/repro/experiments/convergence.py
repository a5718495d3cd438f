"""Convergence-curve experiment: best feasible objective vs. simulations.

The paper reports only end-of-run statistics (Tables I/II); the natural
companion figure — the best-so-far trajectory per algorithm — is what the
"accelerate the follow-up optimization procedure" claim looks like over a
run.  This module produces that series for any subset of the four
algorithms on the op-amp testbench::

    python -m repro.experiments.convergence --budget 60 --repeats 3

Curves are averaged pointwise over repeats (infeasible prefixes excluded
per point) and printed as a sims-vs-GAIN table that can be plotted
directly.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo import NNBO
from repro.bo.config import SurrogateConfig
from repro.circuits.testbenches import TwoStageOpAmpProblem
from repro.experiments.runner import run_repeats
from repro.experiments.tables import render_table


def make_optimizer(name: str, seed: int, n_initial: int, budget: int):
    """One of the four algorithms at a shared simulation budget."""
    problem = TwoStageOpAmpProblem()
    if name == "NN-BO":
        surrogate = SurrogateConfig(
            n_ensemble=3, hidden_dims=(32, 32), n_features=24, epochs=150
        )
        return NNBO(problem, n_initial=n_initial, max_evaluations=budget,
                    surrogate=surrogate, seed=seed)
    if name == "WEIBO":
        return WEIBO(problem, n_initial=n_initial, max_evaluations=budget,
                     seed=seed)
    if name == "GASPAD":
        return GASPAD(problem, n_initial=n_initial,
                      pop_size=min(15, n_initial), max_evaluations=budget,
                      seed=seed)
    if name == "DE":
        return DifferentialEvolution(problem, pop_size=15,
                                     max_evaluations=budget, seed=seed)
    raise ValueError(f"unknown algorithm {name!r}")


def mean_convergence(results) -> np.ndarray:
    """Pointwise mean of best-so-far curves, ignoring infeasible prefixes."""
    curves = np.stack([r.best_so_far() for r in results])
    finite = np.isfinite(curves)
    # 0/0 at a point where every run is still infeasible gives NaN
    with np.errstate(invalid="ignore"):
        return np.where(finite, curves, 0.0).sum(axis=0) / finite.sum(axis=0)


def run_convergence(
    algorithms=("NN-BO", "WEIBO", "GASPAD", "DE"),
    n_initial: int = 15,
    budget: int = 60,
    n_repeats: int = 3,
    seed: int = 0,
    checkpoints=None,
    verbose: bool = False,
) -> dict[str, dict]:
    """Average convergence value at checkpoint simulation counts.

    Returns ``{algorithm: {"@ sims N": mean best GAIN (dB)}}``.
    """
    if checkpoints is None:
        step = max(budget // 6, 1)
        checkpoints = list(range(n_initial, budget + 1, step))
    columns: dict[str, dict] = {}
    for name in algorithms:
        if verbose:
            print(f"[convergence] {name} x{n_repeats}")
        results = run_repeats(
            lambda s, _n=name: make_optimizer(_n, s, n_initial, budget),
            n_repeats=n_repeats,
            seed=seed,
            verbose=verbose,
        )
        curve = mean_convergence(results)
        column = {}
        for k in checkpoints:
            idx = min(k, len(curve)) - 1
            value = curve[idx]
            column[f"@ {k} sims"] = -value if np.isfinite(value) else None
        columns[name] = column
    return columns


def main(argv=None) -> str:
    """CLI entry point; prints the convergence table (GAIN in dB)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=60)
    parser.add_argument("--initial", type=int, default=15)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--algorithms", nargs="+",
        default=["NN-BO", "WEIBO", "GASPAD", "DE"],
    )
    args = parser.parse_args(argv)
    columns = run_convergence(
        algorithms=tuple(args.algorithms),
        n_initial=args.initial,
        budget=args.budget,
        n_repeats=args.repeats,
        seed=args.seed,
        verbose=True,
    )
    labels = list(next(iter(columns.values())).keys())
    table = render_table(
        "Convergence: mean best GAIN (dB) vs simulations", labels, columns
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
