"""Markdown report generation from saved optimization runs.

Paired with :mod:`repro.bo.serialization`: long experiments dump one
JSON per run, and this module aggregates directories of them into the
paper-style tables of EXPERIMENTS.md::

    python -m repro.experiments.report results/table1/*.json

Runs are grouped by their recorded ``algorithm`` name; each group becomes
one column.
"""

from __future__ import annotations

import argparse
from collections import defaultdict
from pathlib import Path

from repro.bo.history import OptimizationResult
from repro.experiments.runner import STATISTIC_ROWS, statistic_rows, summarize
from repro.experiments.tables import render_markdown_table, render_table
from repro.bo.serialization import load_result


def group_results(results: list[OptimizationResult]) -> dict[str, list]:
    """Bucket runs by algorithm name, preserving first-seen order."""
    groups: dict[str, list] = defaultdict(list)
    for result in results:
        groups[result.algorithm].append(result)
    return dict(groups)


def columns_from_results(
    results: list[OptimizationResult], negate_objective: bool = False
) -> dict[str, dict]:
    """Summary columns (one per algorithm) from a mixed list of runs.

    ``negate_objective`` flips signs for maximization-style reporting
    (the op-amp tables report GAIN, whose objective is ``-GAIN``).
    """
    if not results:
        raise ValueError("no results to report")
    sign = -1.0 if negate_objective else 1.0
    return {
        name: statistic_rows(summarize(runs), sign)
        for name, runs in group_results(results).items()
    }


def report_from_files(
    paths, title: str = "Results", negate_objective: bool = False,
    markdown: bool = False,
) -> str:
    """Load runs from JSON files and render the summary table."""
    results = [load_result(Path(p)) for p in paths]
    columns = columns_from_results(results, negate_objective=negate_objective)
    if markdown:
        return render_markdown_table(STATISTIC_ROWS, columns)
    return render_table(title, STATISTIC_ROWS, columns)


def main(argv=None) -> str:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="saved run JSON files")
    parser.add_argument("--title", default="Results")
    parser.add_argument("--negate", action="store_true",
                        help="report -objective (maximization tables)")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    text = report_from_files(
        args.files, title=args.title, negate_objective=args.negate,
        markdown=args.markdown,
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
