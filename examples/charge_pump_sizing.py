"""Size the paper's charge pump (Fig. 4) over PVT corners.

A scaled-down single run of the Table II experiment: 36 design variables,
five current-matching constraints (eq. 15), FOM of eq. 16, evaluated at
PVT corners.  The full paper setup uses all 18 corners and a 790-sim
budget; this example uses a 6-corner subset and a small budget so it
finishes in a few minutes:

    python examples/charge_pump_sizing.py
"""

from repro.circuits.pvt import standard_corners
from repro.circuits.testbenches import ChargePumpProblem
from repro.bo import NNBO
from repro.bo.config import SurrogateConfig


def main():
    corners = standard_corners(processes=("TT", "SS"), temps_c=(-40.0, 125.0))
    problem = ChargePumpProblem(corners=corners)
    print(f"{problem.dim} design variables, {len(problem.corners)} PVT corners")

    optimizer = NNBO(
        problem,
        n_initial=25,
        max_evaluations=60,
        surrogate=SurrogateConfig(
            n_ensemble=3, epochs=100, hidden_dims=(32, 32), n_features=24
        ),
        seed=3,
        verbose=True,
    )
    result = optimizer.run()

    best = result.best_feasible()
    print("\n--- result -------------------------------------------")
    print(f"feasible found: {result.success}")
    if best is not None:
        metrics = best.evaluation.metrics
        print(f"FOM        = {metrics['fom']:.3f}   (0.3*diff + 0.5*deviation)")
        for key in ("diff1_ua", "diff2_ua", "diff3_ua", "diff4_ua", "deviation_ua"):
            print(f"{key:13s}= {metrics[key]:.3f} uA")
        print(f"sims to best: {result.n_sims_to_best()} / {result.n_evaluations}")
    else:
        record = min(
            result.records, key=lambda r: r.evaluation.violation
        )
        print(
            "no fully feasible design in this small budget; closest design "
            f"violates constraints by {record.evaluation.violation:.3f} "
            f"(normalized) with FOM {record.evaluation.objective:.2f}"
        )


if __name__ == "__main__":
    main()
