"""Experiment harness reproducing the paper's evaluation (Sec. IV).

* ``runner``      — multi-run statistics (mean/median/best/worst, Avg#Sim,
  #Success) in the exact shape of the paper's tables, and the one
  paper-table driver (``TableConfig``, ``make_optimizer``, the CLI),
* ``tables``      — text rendering of paper-style result tables,
* ``table1``      — the Table I two-stage op-amp presets and rows,
* ``table2``      — the Table II charge-pump presets and rows,
* ``complexity``  — the Sec. III-D training/prediction scaling claim,
* ``ablation``    — ensemble-size and training-mode ablations.

Each experiment module is runnable: ``python -m repro.experiments.table1``.
"""

from repro.experiments.runner import AlgorithmSummary, run_repeats, summarize
from repro.experiments.tables import render_table

__all__ = ["AlgorithmSummary", "render_table", "run_repeats", "summarize"]
