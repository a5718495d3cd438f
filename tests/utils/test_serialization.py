"""Tests for run/model persistence."""

import numpy as np
import pytest

from repro.bo.history import OptimizationResult
from repro.bo.problem import Evaluation
from repro.core import FeatureGPTrainer, NeuralFeatureGP
from repro.utils.serialization import (
    load_model_into,
    load_result,
    result_from_dict,
    result_to_dict,
    save_model,
    save_result,
)


def sample_result():
    result = OptimizationResult("opamp", "NN-BO")
    result.append(
        np.array([1.0, 2.0]),
        Evaluation(-80.0, np.array([-0.5, -0.1]), metrics={"gain_db": 80.0}),
        phase="initial",
    )
    result.append(
        np.array([1.5, 2.5]),
        Evaluation(-85.0, np.array([-0.6, -0.2]),
                   metrics={"gain_db": 85.0, "regions": {"M1": "sat"}}),
    )
    return result


class TestResultRoundtrip:
    def test_dict_roundtrip_preserves_trace(self):
        original = sample_result()
        clone = result_from_dict(result_to_dict(original))
        assert clone.algorithm == "NN-BO"
        assert clone.n_evaluations == 2
        np.testing.assert_allclose(clone.x_matrix, original.x_matrix)
        np.testing.assert_allclose(clone.objectives, original.objectives)
        np.testing.assert_allclose(
            clone.constraint_matrix, original.constraint_matrix
        )
        assert [r.phase for r in clone.records] == ["initial", "search"]

    def test_scalar_metrics_survive_nested_dropped(self):
        clone = result_from_dict(result_to_dict(sample_result()))
        metrics = clone.records[1].evaluation.metrics
        assert metrics["gain_db"] == 85.0
        assert "regions" not in metrics  # non-scalar metrics are dropped

    def test_file_roundtrip(self, tmp_path):
        original = sample_result()
        path = save_result(original, tmp_path / "run.json")
        clone = load_result(path)
        assert clone.best_objective() == original.best_objective()
        assert clone.n_sims_to_best() == original.n_sims_to_best()

    def test_summary_statistics_preserved(self):
        original = sample_result()
        clone = result_from_dict(result_to_dict(original))
        assert clone.success == original.success
        np.testing.assert_allclose(clone.best_so_far(), original.best_so_far())


class TestLedgerProvenanceRoundtrip:
    """Regression: ``result_to_dict`` used to drop ``result.ledger`` and
    all scheduler provenance (iteration, batch index, pending sets)."""

    def async_result(self):
        """A short asynchronous run whose result carries a full ledger."""
        from repro.bo.config import AcquisitionConfig, SchedulerConfig
        from repro.bo.loop import SurrogateBO
        from repro.bo.scheduler import FakeClock
        from repro.benchfns import toy_constrained_quadratic
        from repro.gp import GPRegression

        return SurrogateBO(
            toy_constrained_quadratic(2),
            lambda rng: GPRegression(n_restarts=1, seed=rng),
            n_initial=4,
            max_evaluations=9,
            acquisition_config=AcquisitionConfig(pending_strategy="penalize"),
            scheduler_config=SchedulerConfig(
                executor="async-thread", n_eval_workers=2, clock=FakeClock()
            ),
            seed=5,
        ).run()

    def test_ledger_roundtrips(self):
        original = self.async_result()
        clone = result_from_dict(result_to_dict(original))
        assert clone.ledger is not None
        assert len(clone.ledger) == len(original.ledger)
        assert clone.ledger.completion_order == original.ledger.completion_order
        for before, after in zip(original.ledger.entries, clone.ledger.entries):
            assert after.proposal_id == before.proposal_id
            assert after.u == before.u
            assert after.pending_at_proposal == before.pending_at_proposal
            assert after.n_landed_at_submit == before.n_landed_at_submit
            assert after.committed_at == before.committed_at
            assert after.record_index == before.record_index
            assert after.strategy == before.strategy == "penalize"

    def test_record_provenance_roundtrips(self):
        original = self.async_result()
        clone = result_from_dict(result_to_dict(original))
        assert [
            (r.iteration, r.batch_index, r.pending, r.proposal_id,
             r.pending_at_proposal)
            for r in clone.records
        ] == [
            (r.iteration, r.batch_index, r.pending, r.proposal_id,
             r.pending_at_proposal)
            for r in original.records
        ]
        assert clone.cache_hits == original.cache_hits
        assert clone.cache_misses == original.cache_misses

    def test_sync_result_without_provenance_still_loads(self):
        """Pre-provenance dicts (older saves) stay readable."""
        legacy = {
            "problem": "p",
            "algorithm": "a",
            "records": [
                {
                    "index": 0,
                    "x": [0.5],
                    "phase": "search",
                    "objective": 1.0,
                    "constraints": [],
                    "metrics": {},
                }
            ],
        }
        clone = result_from_dict(legacy)
        assert clone.n_evaluations == 1
        assert clone.ledger is None
        assert clone.records[0].pending == ()


class TestModelRoundtrip:
    def make_fitted(self, seed=0):
        rng = np.random.default_rng(3)
        model = NeuralFeatureGP(2, hidden_dims=(10, 10), n_features=6, seed=seed)
        x = rng.uniform(size=(15, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        model.fit(x, y, trainer=FeatureGPTrainer(epochs=50))
        return model, x

    def test_predictions_identical_after_reload(self, tmp_path):
        model, x = self.make_fitted()
        path = tmp_path / "model.npz"
        save_model(model, path)
        clone = NeuralFeatureGP(2, hidden_dims=(10, 10), n_features=6, seed=99)
        load_model_into(clone, path)
        mean_a, var_a = model.predict(x)
        mean_b, var_b = clone.predict(x)
        np.testing.assert_allclose(mean_b, mean_a, rtol=1e-12)
        np.testing.assert_allclose(var_b, var_a, rtol=1e-12)

    def test_unfitted_model_rejected(self, tmp_path):
        model = NeuralFeatureGP(2, hidden_dims=(10, 10), n_features=6)
        with pytest.raises(ValueError):
            save_model(model, tmp_path / "m.npz")

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "m.npz")

    def test_architecture_mismatch_raises(self, tmp_path):
        model, _ = self.make_fitted()
        path = tmp_path / "model.npz"
        save_model(model, path)
        wrong = NeuralFeatureGP(2, hidden_dims=(20, 20), n_features=6)
        with pytest.raises(ValueError):
            load_model_into(wrong, path)
