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

from dataclasses import replace

from repro.bo.config import SurrogateConfig
from repro.circuits.testbenches import TwoStageOpAmpProblem
from repro.experiments.runner import (
    STATISTIC_ROWS,
    TableConfig,
    statistic_rows,
    table_main,
)

TITLE = "Table I: two-stage op-amp optimization (GAIN in dB)"

ROW_LABELS = ["UGF (MHz)", "PM (deg)", *STATISTIC_ROWS]

PAPER = TableConfig(
    TwoStageOpAmpProblem,
    n_repeats=10,
    n_initial=30,
    bo_budget=100,
    gaspad_budget=200,
    de_budget=1100,
)

QUICK = replace(
    PAPER,
    n_repeats=2,
    n_initial=12,
    bo_budget=30,
    gaspad_budget=45,
    de_budget=120,
    surrogate=SurrogateConfig(n_ensemble=3, epochs=100, hidden_dims=(24, 24), n_features=20),
)


def summary_to_column(summary) -> dict:
    """Map an :class:`~repro.experiments.runner.AlgorithmSummary` to the
    Table I row values.

    The objective is ``-GAIN`` (dB); rows report GAIN, so signs flip and
    mean/worst swap roles relative to the raw minimization statistics.
    """
    metrics = summary.best_run_metrics
    return {
        "UGF (MHz)": metrics.get("ugf_hz", float("nan")) / 1e6,
        "PM (deg)": metrics.get("pm_deg", float("nan")),
        **statistic_rows(summary, sign=-1.0),
    }


def main(argv=None) -> str:
    """CLI entry point; prints and returns the rendered table."""
    return table_main(
        argv,
        description=__doc__,
        label="table1",
        title=TITLE,
        row_labels=ROW_LABELS,
        to_column=summary_to_column,
        presets={"quick": QUICK, "paper": PAPER},
    )


if __name__ == "__main__":
    main()
