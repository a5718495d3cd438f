"""Tests for the table1/table2/complexity/ablation experiment modules.

Full paper-scale runs take hours; these tests exercise the machinery with
miniature configs and check the *structure* of the outputs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bo.config import AcquisitionConfig, SurrogateConfig
from repro.experiments import ablation, complexity, runner, table1, table2
from repro.experiments.ablation import nlpd
from repro.experiments.runner import make_optimizer, make_problem


@pytest.mark.parametrize("module", [table1, table2], ids=["table1", "table2"])
@pytest.mark.parametrize("preset", ["quick", "paper"])
def test_cli_flags_leave_module_presets_alone(monkeypatch, module, preset):
    """Regression: ``main`` assigned the parsed flags onto the shared
    ``QUICK``/``PAPER`` instances, so one CLI call rewrote the presets
    every later caller in the process saw.  The presets are frozen now,
    and the flags reach the run as a copy."""
    presets = (replace(module.QUICK), replace(module.PAPER))
    ran = []
    monkeypatch.setattr(runner, "run_experiment", lambda config, *args: ran.append(config) or {})
    monkeypatch.setattr(runner, "render_table", lambda *args: "")
    module.main([
        "--preset", preset, "--q", "3", "--repeats", "1",
        "--eval-executor", "thread", "--seed", "7", "--quiet",
    ])
    (config,) = ran
    scheduler = config.scheduler
    assert (scheduler.q, config.n_repeats, scheduler.executor, config.seed) == (3, 1, "thread", 7)
    assert config.verbose is False
    assert config.n_initial == getattr(module, preset.upper()).n_initial
    assert (module.QUICK, module.PAPER) == presets


class TestTable1Machinery:
    def test_make_optimizer_budgets(self):
        config = table1.PAPER
        problem = make_problem(config)
        nnbo = make_optimizer("NN-BO", config, problem, seed=0)
        assert nnbo.max_evaluations == 100  # paper budget
        assert nnbo.n_initial == 30
        gaspad = make_optimizer("GASPAD", config, problem, seed=0)
        assert gaspad.max_evaluations == 200
        de = make_optimizer("DE", config, problem, seed=0)
        assert de.max_evaluations == 1100

    def test_paper_preset_matches_paper(self):
        assert table1.PAPER.n_repeats == 10
        assert table1.PAPER.surrogate.n_ensemble == 5
        assert table1.PAPER.surrogate.hidden_dims == (50, 50)

    def test_proposal_space_flows_into_acquisition_config(self):
        config = replace(
            table1.PAPER, acquisition=AcquisitionConfig(proposal_space="trust-region")
        )
        nnbo = make_optimizer("NN-BO", config, make_problem(config), seed=0)
        assert nnbo.acquisition_config.proposal_space == "trust-region"
        assert nnbo.proposal_space is not None
        # the default stays on the bitwise-pinned full-space path
        nnbo = make_optimizer("NN-BO", table1.PAPER, make_problem(table1.PAPER), seed=0)
        assert nnbo.acquisition_config.proposal_space == "full"
        assert nnbo.proposal_space is None

    def test_unknown_algorithm(self):
        config = table1.QUICK
        with pytest.raises(ValueError):
            make_optimizer("CMA-ES", config, make_problem(config), 0)

    def test_summary_to_column_flips_sign(self):
        from repro.experiments.runner import AlgorithmSummary

        summary = AlgorithmSummary(
            algorithm="X", n_runs=2, n_success=2,
            best_objectives=np.array([-88.0, -90.0]),
            sims_to_best=np.array([50.0, 60.0]),
            best_run_metrics={"ugf_hz": 42e6, "pm_deg": 61.0},
        )
        col = table1.summary_to_column(summary)
        assert col["best"] == pytest.approx(90.0)
        assert col["worst"] == pytest.approx(88.0)
        assert col["UGF (MHz)"] == pytest.approx(42.0)
        assert col["Avg. # Sim"] == pytest.approx(55.0)


class TestTable2Machinery:
    def test_paper_preset(self):
        assert table2.PAPER.n_repeats == 12
        assert table2.PAPER.n_initial == 100
        assert table2.PAPER.bo_budget == 790

    def test_summary_to_column_keeps_fom_sign(self):
        from repro.experiments.runner import AlgorithmSummary

        summary = AlgorithmSummary(
            algorithm="X", n_runs=1, n_success=1,
            best_objectives=np.array([3.5]),
            sims_to_best=np.array([500.0]),
            best_run_metrics={"diff1_ua": 5.0, "deviation_ua": 1.0},
        )
        col = table2.summary_to_column(summary)
        assert col["mean"] == pytest.approx(3.5)
        assert col["diff1"] == pytest.approx(5.0)

    def test_quick_config_small(self):
        assert table2.QUICK.bo_budget <= 50


def test_table_driver_end_to_end(monkeypatch):
    """Both tables' CLIs run the shared driver at miniature budgets:
    Table I with all four algorithms, Table II with NN-BO alone."""
    mini = dict(
        n_repeats=1, n_initial=5, bo_budget=7, gaspad_budget=8, de_budget=18,
        surrogate=SurrogateConfig(n_ensemble=2, hidden_dims=(8, 8), n_features=8, epochs=5),
    )
    monkeypatch.setattr(table1, "QUICK", replace(table1.QUICK, **mini))
    monkeypatch.setattr(table2, "QUICK", replace(table2.QUICK, algorithms=("NN-BO",), **mini))
    for module, algorithms in (
        (table1, ["NN-BO", "WEIBO", "GASPAD", "DE"]),
        (table2, ["NN-BO"]),
    ):
        title, _, header, _, *rows = module.main(["--quiet"]).splitlines()
        assert title == module.TITLE
        assert [cell.strip() for cell in header.split(" | ")] == ["Metric", *algorithms]
        cells = {row.split(" | ")[0].strip(): row.split(" | ")[1:] for row in rows}
        assert list(cells) == module.ROW_LABELS
        assert all(cell.strip() in ("0/1", "1/1") for cell in cells["# Success"])


class TestComplexity:
    def test_measure_scaling_structure(self):
        columns = complexity.measure_scaling(sizes=(16, 32), dim=3,
                                             n_features=10, n_test=16)
        assert set(columns) == {
            "GP train-step (ms)", "NN-GP train-step (ms)",
            "GP predict (ms)", "NN-GP predict (ms)",
        }
        for col in columns.values():
            assert set(col) == {"N=16", "N=32"}
            assert all(v > 0 for v in col.values())

    def test_fit_power_law(self):
        sizes = [10, 100, 1000]
        times = [1e-3 * n**2 for n in sizes]
        assert complexity.fit_power_law(sizes, times) == pytest.approx(2.0, abs=0.01)


class TestAblationStudies:
    """Miniature runs of both studies; one seed gives one result."""

    def test_ensemble_size_study_reproducible(self):
        kwargs = dict(k_values=(1, 2), n_train=12, n_test=20, epochs=10, n_trials=1, seed=0)
        columns = ablation.ensemble_size_study(**kwargs)
        assert set(columns) == {"K=1", "K=2"}
        assert all(np.isfinite(v) for row in columns.values() for v in row.values())
        assert ablation.ensemble_size_study(**kwargs) == columns

    def test_training_mode_study_reproducible(self):
        kwargs = dict(n_train=12, n_test=20, epochs=10, n_trials=1, seed=0)
        columns = ablation.training_mode_study(**kwargs)
        assert set(columns) == {"direct NLL (paper)", "MSE pretrain + NLL"}
        assert all(np.isfinite(v) for row in columns.values() for v in row.values())
        assert ablation.training_mode_study(**kwargs) == columns


class TestAblationHelpers:
    def test_nlpd_perfect_prediction(self):
        y = np.array([1.0, 2.0])
        value = nlpd(y, y, np.full(2, 1e-4))
        sharp = nlpd(y, y, np.full(2, 1.0))
        assert value < sharp  # confident & right beats vague & right

    def test_nlpd_penalizes_overconfidence(self):
        y = np.array([0.0])
        wrong_confident = nlpd(y, np.array([3.0]), np.array([1e-4]))
        wrong_vague = nlpd(y, np.array([3.0]), np.array([4.0]))
        assert wrong_confident > wrong_vague
