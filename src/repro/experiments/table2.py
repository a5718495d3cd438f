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

from dataclasses import replace

from repro.bo.config import SurrogateConfig
from repro.circuits.testbenches import ChargePumpProblem
from repro.experiments.runner import (
    STATISTIC_ROWS,
    TableConfig,
    statistic_rows,
    table_main,
)

TITLE = "Table II: charge-pump optimization (currents in uA, FOM of eq. 16)"

ROW_LABELS = ["diff1", "diff2", "diff3", "diff4", "deviation", *STATISTIC_ROWS]

PAPER = TableConfig(
    ChargePumpProblem,
    n_repeats=12,
    n_initial=100,
    bo_budget=790,
    gaspad_budget=2000,
    de_budget=2000,
)

QUICK = replace(
    PAPER,
    n_repeats=2,
    n_initial=20,
    bo_budget=40,
    gaspad_budget=60,
    de_budget=120,
    surrogate=SurrogateConfig(n_ensemble=3, epochs=80, hidden_dims=(32, 32), n_features=24),
)


def summary_to_column(summary) -> dict:
    """Map an :class:`~repro.experiments.runner.AlgorithmSummary` to the
    Table II row values (the FOM is minimized, so no sign flip)."""
    metrics = summary.best_run_metrics
    return {
        "diff1": metrics.get("diff1_ua", float("nan")),
        "diff2": metrics.get("diff2_ua", float("nan")),
        "diff3": metrics.get("diff3_ua", float("nan")),
        "diff4": metrics.get("diff4_ua", float("nan")),
        "deviation": metrics.get("deviation_ua", float("nan")),
        **statistic_rows(summary),
    }


def main(argv=None) -> str:
    """CLI entry point; prints and returns the rendered table."""
    return table_main(
        argv,
        description=__doc__,
        label="table2",
        title=TITLE,
        row_labels=ROW_LABELS,
        to_column=summary_to_column,
        presets={"quick": QUICK, "paper": PAPER},
    )


if __name__ == "__main__":
    main()
