"""Head-to-head comparison of all four algorithms on the op-amp testbench.

A miniature version of the paper's Table I: NN-BO (ours), WEIBO, GASPAD
and DE share the same simulator and statistics harness; only budgets are
scaled down so the script finishes in ~10 minutes.

    python examples/compare_algorithms.py
"""

from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo import NNBO
from repro.bo.config import SurrogateConfig
from repro.circuits.testbenches import TwoStageOpAmpProblem
from repro.experiments.runner import run_repeats, summarize
from repro.experiments.tables import render_table

N_REPEATS = 2
N_INITIAL = 15
BO_BUDGET = 40
EA_BUDGET = 70
DE_BUDGET = 150


def make_optimizer(name: str, seed: int):
    problem = TwoStageOpAmpProblem()
    if name == "NN-BO":
        surrogate = SurrogateConfig(n_ensemble=3, epochs=120,
                                    hidden_dims=(32, 32), n_features=24)
        return NNBO(problem, n_initial=N_INITIAL, max_evaluations=BO_BUDGET,
                    surrogate=surrogate, seed=seed)
    if name == "WEIBO":
        return WEIBO(problem, n_initial=N_INITIAL, max_evaluations=BO_BUDGET,
                     seed=seed)
    if name == "GASPAD":
        return GASPAD(problem, n_initial=N_INITIAL, pop_size=10,
                      max_evaluations=EA_BUDGET, seed=seed)
    if name == "DE":
        return DifferentialEvolution(problem, pop_size=15,
                                     max_evaluations=DE_BUDGET, seed=seed)
    raise ValueError(name)


def main():
    columns = {}
    for name in ("NN-BO", "WEIBO", "GASPAD", "DE"):
        print(f"running {name} x{N_REPEATS} ...")
        results = run_repeats(
            lambda seed, _n=name: make_optimizer(_n, seed),
            n_repeats=N_REPEATS, seed=42,
        )
        summary = summarize(results)
        columns[name] = {
            "GAIN mean (dB)": -summary.mean,
            "GAIN best (dB)": -summary.best,
            "Avg. # Sim": summary.avg_sims,
            "# Success": summary.success_rate,
        }
    print()
    print(render_table(
        "Mini Table I: two-stage op-amp, scaled-down budgets",
        ["GAIN mean (dB)", "GAIN best (dB)", "Avg. # Sim", "# Success"],
        columns,
    ))


if __name__ == "__main__":
    main()
