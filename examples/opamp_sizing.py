"""Size the paper's two-stage op-amp (Fig. 3) with NN-GP Bayesian optimization.

This is a single scaled-down run of the Table I experiment: maximize GAIN
subject to UGF > 40 MHz and PM > 60 deg over 10 design variables.

    python examples/opamp_sizing.py          # ~2-3 minutes
"""

import numpy as np

from repro.circuits.testbenches import TwoStageOpAmpProblem
from repro.circuits.units import format_si
from repro.bo import NNBO
from repro.bo.config import SurrogateConfig


def main():
    problem = TwoStageOpAmpProblem()
    print(f"{problem.dim} design variables: {problem.variable_names}")

    optimizer = NNBO(
        problem,
        n_initial=20,
        max_evaluations=60,
        surrogate=SurrogateConfig(
            n_ensemble=3, epochs=150, hidden_dims=(32, 32), n_features=24
        ),
        seed=7,
        verbose=True,
    )
    result = optimizer.run()

    best = result.best_feasible()
    if best is None:
        print("no feasible design found — increase the budget")
        return
    metrics = best.evaluation.metrics
    print("\n--- best design --------------------------------------")
    for name, value in problem.as_dict(best.x).items():
        unit = {"cc": "F", "ibias": "A"}.get(name, "m")
        print(f"  {name:6s} = {format_si(value, unit)}")
    print("--- performances --------------------------------------")
    print(f"  GAIN = {metrics['gain_db']:.2f} dB")
    print(f"  UGF  = {format_si(metrics['ugf_hz'], 'Hz')}  (spec > 40MHz)")
    print(f"  PM   = {metrics['pm_deg']:.1f} deg        (spec > 60deg)")
    print(f"  Idd  = {format_si(metrics['idd_a'], 'A')}")
    print(f"  sims to best: {result.n_sims_to_best()} / {result.n_evaluations}")
    print(f"  device regions: {metrics['regions']}")
    print(f"  convergence: {np.round(-result.best_so_far()[19::10], 1)} dB")


if __name__ == "__main__":
    main()
