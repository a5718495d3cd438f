"""Tests for the complete NN-BO algorithm (paper Algorithm 1)."""

from dataclasses import replace

import numpy as np

from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import AcquisitionConfig, SurrogateConfig
from repro.core import NNBO
from repro.core.bo import _TrainedEnsemble

TINY_NN = SurrogateConfig(n_ensemble=2, hidden_dims=(12, 12), n_features=8, epochs=50)


def tiny_nnbo(problem, *, max_evaluations=16, seed=0, acquisition_config=None, **surrogate):
    """A small NNBO; ``surrogate`` overrides fields of :data:`TINY_NN`."""
    return NNBO(
        problem,
        n_initial=8,
        max_evaluations=max_evaluations,
        surrogate=replace(TINY_NN, **surrogate),
        acquisition_config=acquisition_config,
        seed=seed,
    )


class TestNNBO:
    def test_runs_within_budget(self):
        result = tiny_nnbo(toy_constrained_quadratic(2)).run()
        assert result.n_evaluations == 16
        assert result.algorithm == "NN-BO"

    def test_finds_feasible_and_improves(self):
        result = tiny_nnbo(
            toy_constrained_quadratic(2), max_evaluations=24, seed=1
        ).run()
        assert result.success
        # must improve on the best initial sample
        curve = result.best_so_far()
        assert curve[-1] <= curve[7]

    def test_surrogate_factory_builds_configured_ensemble(self):
        problem = toy_constrained_quadratic(2)
        nnbo = tiny_nnbo(problem, n_ensemble=3)
        surrogate = nnbo.surrogate_factory(np.random.default_rng(0))
        assert isinstance(surrogate, _TrainedEnsemble)
        assert len(surrogate.members) == 3
        member = surrogate.members[0]
        assert member.input_dim == problem.dim
        assert member.n_features == 8

    def test_fresh_random_init_each_iteration(self):
        """Algorithm 1 re-initializes hyper-parameters every round: two
        factory calls must give differently initialized networks."""
        nnbo = tiny_nnbo(toy_constrained_quadratic(2))
        rng = np.random.default_rng(0)
        a = nnbo.surrogate_factory(rng).members[0].network.get_flat_params()
        b = nnbo.surrogate_factory(rng).members[0].network.get_flat_params()
        assert not np.allclose(a, b)

    def test_ensemble_members_differ_within_one_surrogate(self):
        nnbo = tiny_nnbo(toy_constrained_quadratic(2), n_ensemble=2)
        surrogate = nnbo.surrogate_factory(np.random.default_rng(0))
        a = surrogate.members[0].network.get_flat_params()
        b = surrogate.members[1].network.get_flat_params()
        assert not np.allclose(a, b)

    def test_trained_ensemble_fit_predict(self, rng):
        nnbo = tiny_nnbo(toy_constrained_quadratic(2))
        surrogate = nnbo.surrogate_factory(rng)
        x = rng.uniform(size=(10, 2))
        y = np.sum(x, axis=1)
        surrogate.fit(x, y)
        mean, var = surrogate.predict(x[:4])
        assert mean.shape == (4,)
        assert np.all(var > 0)

    def test_reproducible(self):
        a = tiny_nnbo(toy_constrained_quadratic(2), seed=9).run()
        b = tiny_nnbo(toy_constrained_quadratic(2), seed=9).run()
        np.testing.assert_allclose(a.x_matrix, b.x_matrix)


class TestEngineSelection:
    def test_default_engine_is_batched(self):
        nnbo = tiny_nnbo(toy_constrained_quadratic(2))
        assert nnbo.engine == "batched"
        assert nnbo.surrogate_bank_factory is not None

    def test_thompson_auto_falls_back_to_loop(self):
        nnbo = tiny_nnbo(
            toy_constrained_quadratic(2),
            acquisition_config=AcquisitionConfig(acquisition="thompson"),
        )
        assert nnbo.engine == "loop"
        assert nnbo.surrogate_bank_factory is None

    def test_invalid_engine_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            tiny_nnbo(toy_constrained_quadratic(2), engine="warp")

    def test_batched_and_loop_agree(self):
        """The batched engine replays the loop path exactly: same rng
        stream, numerically equivalent surrogates, same proposals."""
        a = tiny_nnbo(toy_constrained_quadratic(2), seed=4).run()
        b = tiny_nnbo(toy_constrained_quadratic(2), seed=4, engine="loop").run()
        np.testing.assert_allclose(a.x_matrix, b.x_matrix, atol=1e-10)

    def test_bank_factory_builds_configured_bank(self):
        from repro.core import SurrogateBank

        nnbo = tiny_nnbo(toy_constrained_quadratic(2), n_ensemble=3)
        bank = nnbo.surrogate_bank_factory(np.random.default_rng(0), 2)
        assert isinstance(bank, SurrogateBank)
        assert bank.n_targets == 2
        assert bank.n_members == 3
        assert bank.n_stack == 6
