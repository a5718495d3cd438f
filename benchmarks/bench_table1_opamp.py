"""Bench for paper Table I: two-stage op-amp sizing, four algorithms.

Scaled-down budgets (the paper uses 30 initial + 100 total sims over 10
repeats; here 12 + 26 over 1-2 repeats) — the *shape* being reproduced:

* every algorithm finds a feasible design (paper: # Success 10/10),
* the two BO methods reach gains no worse than the evolutionary baselines
  at a fraction of the simulations (paper: 86/92 sims vs 122/999),
* NN-BO's best gain is within a few dB of WEIBO's (paper: 88.17 vs 87.95).

Run: ``pytest benchmarks/bench_table1_opamp.py --benchmark-only``
"""

import pytest

from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo import NNBO
from repro.bo.config import SurrogateConfig
from repro.circuits.testbenches import TwoStageOpAmpProblem

N_INITIAL = 12
BO_BUDGET = 26
GASPAD_BUDGET = 40
DE_BUDGET = 90
SEED = 2019


def _nnbo():
    return NNBO(
        TwoStageOpAmpProblem(),
        n_initial=N_INITIAL,
        max_evaluations=BO_BUDGET,
        surrogate=SurrogateConfig(
            n_ensemble=3, hidden_dims=(24, 24), n_features=20, epochs=80
        ),
        seed=SEED,
    ).run()


def _weibo():
    return WEIBO(
        TwoStageOpAmpProblem(),
        n_initial=N_INITIAL,
        max_evaluations=BO_BUDGET,
        seed=SEED,
    ).run()


def _gaspad():
    return GASPAD(
        TwoStageOpAmpProblem(),
        n_initial=N_INITIAL,
        pop_size=10,
        max_evaluations=GASPAD_BUDGET,
        seed=SEED,
    ).run()


def _de():
    return DifferentialEvolution(
        TwoStageOpAmpProblem(),
        pop_size=15,
        max_evaluations=DE_BUDGET,
        seed=SEED,
    ).run()


RESULTS = {}


def _record(benchmark, name, result):
    RESULTS[name] = result
    benchmark.extra_info["best_gain_db"] = -result.best_objective()
    benchmark.extra_info["n_evaluations"] = result.n_evaluations
    benchmark.extra_info["sims_to_best"] = result.n_sims_to_best()
    benchmark.extra_info["success"] = result.success
    print(
        f"\n[table1/{name}] gain={-result.best_objective():.2f} dB, "
        f"sims_to_best={result.n_sims_to_best()}, evals={result.n_evaluations}"
    )


@pytest.mark.benchmark(group="table1")
def test_table1_nnbo(benchmark):
    result = benchmark.pedantic(_nnbo, rounds=1, iterations=1)
    _record(benchmark, "NN-BO", result)
    assert result.success, "paper Table I: NN-BO succeeds on every run"
    assert -result.best_objective() > 60.0


@pytest.mark.benchmark(group="table1")
def test_table1_weibo(benchmark):
    result = benchmark.pedantic(_weibo, rounds=1, iterations=1)
    _record(benchmark, "WEIBO", result)
    assert result.success


@pytest.mark.benchmark(group="table1")
def test_table1_gaspad(benchmark):
    result = benchmark.pedantic(_gaspad, rounds=1, iterations=1)
    _record(benchmark, "GASPAD", result)
    assert result.success


@pytest.mark.benchmark(group="table1")
def test_table1_de(benchmark):
    result = benchmark.pedantic(_de, rounds=1, iterations=1)
    _record(benchmark, "DE", result)
    assert result.success


@pytest.mark.benchmark(group="table1")
def test_table1_shape(benchmark):
    """Cross-algorithm shape assertions (runs after the four benches)."""
    needed = {"NN-BO", "WEIBO", "GASPAD", "DE"}
    missing = needed - set(RESULTS)
    if missing:
        pytest.skip(f"run the full table1 group together (missing {missing})")

    def summarize():
        return {name: -res.best_objective() for name, res in RESULTS.items()}

    gains = benchmark.pedantic(summarize, rounds=1, iterations=1)
    benchmark.extra_info.update(gains)
    # Paper shape: the BO methods match or beat the evolutionary baselines
    # while consuming far fewer simulations.
    best_bo = max(gains["NN-BO"], gains["WEIBO"])
    assert best_bo >= gains["GASPAD"] - 6.0
    assert best_bo >= gains["DE"] - 6.0
    bo_sims = max(
        RESULTS["NN-BO"].n_evaluations, RESULTS["WEIBO"].n_evaluations
    )
    assert bo_sims < RESULTS["DE"].n_evaluations
