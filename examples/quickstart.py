"""Quickstart: constrained Bayesian optimization with the NN-GP surrogate.

Runs the paper's Algorithm 1 (Fig. 2 loop) on a cheap analytic problem so
you can see the full API in under a minute:

    python examples/quickstart.py
"""

import numpy as np

from repro import NNBO, SurrogateConfig
from repro.benchfns import gardner_problem


def main():
    problem = gardner_problem()
    print(f"problem: {problem} over bounds {problem.lower} .. {problem.upper}")

    optimizer = NNBO(
        problem,
        n_initial=12,          # random Latin-hypercube starting set
        max_evaluations=35,    # total simulation budget (Algorithm 1)
        surrogate=SurrogateConfig(
            n_ensemble=3,          # K models averaged per eq. 13
            hidden_dims=(24, 24),  # Fig. 1: input + 2 hidden + feature layer
            n_features=16,
            epochs=120,            # likelihood-maximization steps (eq. 11/12)
        ),
        seed=0,
        verbose=True,
    )
    result = optimizer.run()

    best = result.best_feasible()
    print("\n--- result -------------------------------------------")
    print(f"evaluations used : {result.n_evaluations}")
    print(f"feasible found   : {result.success}")
    print(f"best objective   : {best.evaluation.objective:.4f}")
    print(f"best x           : {np.round(best.x, 4)}")
    print(f"sims to best     : {result.n_sims_to_best()}")
    curve = result.best_so_far()
    milestones = {i: curve[i] for i in range(9, len(curve), 5)}
    print("convergence      :", {k: round(v, 3) for k, v in milestones.items()})


if __name__ == "__main__":
    main()
