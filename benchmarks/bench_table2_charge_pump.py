"""Bench for paper Table II: charge-pump sizing over PVT corners.

Scaled-down: 6 PVT corners (of the paper's 18 — the full grid lives in
``python -m repro.experiments.table2 --preset paper``), 36 design
variables and all five constraints retained, budgets of ~36 simulations
instead of 790.  The shape being reproduced:

* NN-BO and WEIBO both drive the eq. 16 FOM / constraint violation down
  within a budget where plain DE has barely moved (paper: FOM 3.48/3.95
  vs 11.85 for DE),
* the violation trace decreases through the search phase.

Run: ``pytest benchmarks/bench_table2_charge_pump.py --benchmark-only``
"""

import numpy as np
import pytest

from repro.baselines import DifferentialEvolution, WEIBO
from repro.bo import NNBO
from repro.bo.config import SurrogateConfig
from repro.circuits.pvt import standard_corners
from repro.circuits.testbenches import ChargePumpProblem

N_INITIAL = 14
BO_BUDGET = 30
DE_BUDGET = 30
SEED = 2019


def make_problem():
    corners = standard_corners(
        processes=("TT", "SS", "FF"), vdd_scales=(1.0,), temps_c=(-40.0, 125.0)
    )
    return ChargePumpProblem(corners=corners)


def best_violation_or_fom(result):
    """Best feasible FOM, falling back to the lowest violation (uA-scale)."""
    if result.success:
        return result.best_objective(), 0.0
    best = min(result.records, key=lambda r: r.evaluation.violation)
    return best.evaluation.objective, best.evaluation.violation


RESULTS = {}


def _record(benchmark, name, result):
    RESULTS[name] = result
    fom, violation = best_violation_or_fom(result)
    benchmark.extra_info["best_fom"] = fom
    benchmark.extra_info["best_violation"] = violation
    benchmark.extra_info["success"] = result.success
    print(
        f"\n[table2/{name}] fom={fom:.2f} violation={violation:.3f} "
        f"success={result.success} evals={result.n_evaluations}"
    )


@pytest.mark.benchmark(group="table2")
def test_table2_nnbo(benchmark):
    def run():
        return NNBO(
            make_problem(),
            n_initial=N_INITIAL,
            max_evaluations=BO_BUDGET,
            surrogate=SurrogateConfig(
                n_ensemble=2, hidden_dims=(24, 24), n_features=20, epochs=60
            ),
            seed=SEED,
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(benchmark, "NN-BO", result)
    # the search must make clear progress on constraint satisfaction
    violations = [r.evaluation.violation for r in result.records]
    assert min(violations[N_INITIAL:]) <= np.median(violations[:N_INITIAL])


@pytest.mark.benchmark(group="table2")
def test_table2_weibo(benchmark):
    def run():
        return WEIBO(
            make_problem(),
            n_initial=N_INITIAL,
            max_evaluations=BO_BUDGET,
            seed=SEED,
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(benchmark, "WEIBO", result)
    violations = [r.evaluation.violation for r in result.records]
    assert min(violations) <= np.median(violations[:N_INITIAL])


@pytest.mark.benchmark(group="table2")
def test_table2_de(benchmark):
    def run():
        return DifferentialEvolution(
            make_problem(),
            pop_size=10,
            max_evaluations=DE_BUDGET,
            seed=SEED,
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _record(benchmark, "DE", result)


@pytest.mark.benchmark(group="table2")
def test_table2_shape(benchmark):
    """Paper shape: BO methods are at least as close to feasibility as DE
    at an equal (small) budget."""
    needed = {"NN-BO", "WEIBO", "DE"}
    if needed - set(RESULTS):
        pytest.skip("run the full table2 group together")

    def summarize():
        return {
            name: best_violation_or_fom(res)[1] for name, res in RESULTS.items()
        }

    violations = benchmark.pedantic(summarize, rounds=1, iterations=1)
    benchmark.extra_info.update(violations)
    best_bo = min(violations["NN-BO"], violations["WEIBO"])
    assert best_bo <= violations["DE"] + 1.0
