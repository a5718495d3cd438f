"""Tests for markdown/text report generation from saved runs."""

import numpy as np
import pytest

from repro.bo.history import OptimizationResult
from repro.bo.problem import Evaluation
from repro.experiments.report import (
    columns_from_results,
    group_results,
    report_from_files,
)
from repro.bo.serialization import save_result


def run(algorithm, best, n=3):
    result = OptimizationResult("p", algorithm)
    for i in range(n):
        value = best + (n - 1 - i)  # improves over time, ends at `best`
        result.append(np.array([0.0]), Evaluation(value, np.array([-1.0])))
    return result


class TestGrouping:
    def test_by_algorithm(self):
        groups = group_results([run("A", 1.0), run("B", 2.0), run("A", 3.0)])
        assert set(groups) == {"A", "B"}
        assert len(groups["A"]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            columns_from_results([])


class TestColumns:
    def test_minimization_columns(self):
        columns = columns_from_results([run("A", 1.0), run("A", 3.0)])
        assert columns["A"]["best"] == pytest.approx(1.0)
        assert columns["A"]["worst"] == pytest.approx(3.0)
        assert columns["A"]["mean"] == pytest.approx(2.0)
        assert columns["A"]["# Success"] == "2/2"

    def test_negated_columns_flip_best_worst(self):
        """GAIN reporting: objective -90 dB is *better* than -80 dB."""
        columns = columns_from_results(
            [run("A", -90.0), run("A", -80.0)], negate_objective=True
        )
        assert columns["A"]["best"] == pytest.approx(90.0)
        assert columns["A"]["worst"] == pytest.approx(80.0)
        assert columns["A"]["mean"] == pytest.approx(85.0)


class TestFileReport:
    def test_roundtrip_through_files(self, tmp_path):
        paths = []
        for k, algo in enumerate(["NN-BO", "NN-BO", "WEIBO"]):
            p = tmp_path / f"run{k}.json"
            save_result(run(algo, 1.0 + k), p)
            paths.append(p)
        text = report_from_files(paths, title="T")
        assert "NN-BO" in text
        assert "WEIBO" in text
        assert "Avg. # Sim" in text

    def test_markdown_mode(self, tmp_path):
        p = tmp_path / "run.json"
        save_result(run("A", 2.0), p)
        text = report_from_files([p], markdown=True)
        assert text.startswith("| Metric |")
