"""Tests for the complete NN-BO algorithm (paper Algorithm 1)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import AcquisitionConfig, SurrogateConfig
from repro.bo.loop import NNBO, SurrogateBO
from per_member_engine import DeepEnsemble, FeatureGPTrainer, NeuralFeatureGP

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
        """NNBO fits through the bank only: no per-target factory, and the
        bank's stacked members carry the configured architecture."""
        problem = toy_constrained_quadratic(2)
        nnbo = tiny_nnbo(problem, n_ensemble=3)
        assert nnbo.surrogate_factory is None
        bank = nnbo.surrogate_bank_factory(np.random.default_rng(0), 2)
        assert bank.n_members == 3
        assert bank.gp.input_dim == problem.dim
        assert bank.gp.n_features == 8

    def test_fresh_random_init_each_iteration(self):
        """Algorithm 1 re-initializes hyper-parameters every round: two
        factory calls must give differently initialized networks."""
        nnbo = tiny_nnbo(toy_constrained_quadratic(2))
        rng = np.random.default_rng(0)
        a = nnbo.surrogate_bank_factory(rng, 2).gp.network.get_stacked_params()
        b = nnbo.surrogate_bank_factory(rng, 2).gp.network.get_stacked_params()
        assert not np.allclose(a, b)

    def test_ensemble_members_differ_within_one_surrogate(self):
        nnbo = tiny_nnbo(toy_constrained_quadratic(2), n_ensemble=2)
        bank = nnbo.surrogate_bank_factory(np.random.default_rng(0), 1)
        params = bank.gp.network.get_stacked_params()
        assert not np.allclose(params[0], params[1])

    def test_trained_ensemble_fit_predict(self, rng):
        nnbo = tiny_nnbo(toy_constrained_quadratic(2))
        bank = nnbo.surrogate_bank_factory(rng, 1)
        x = rng.uniform(size=(10, 2))
        y = np.sum(x, axis=1)
        bank.fit(x, y[None, :])
        mean, var = bank.predict_target(0, x[:4])
        assert mean.shape == (4,)
        assert np.all(var > 0)

    def test_reproducible(self):
        a = tiny_nnbo(toy_constrained_quadratic(2), seed=9).run()
        b = tiny_nnbo(toy_constrained_quadratic(2), seed=9).run()
        np.testing.assert_allclose(a.x_matrix, b.x_matrix)

    def test_reproducible_with_pretraining(self):
        """The MSE warm start's throwaway heads come from the trainer's own
        fixed stream, so a seeded study that pretrains repeats its trace."""
        config = SurrogateConfig(
            n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20, pretrain_epochs=10
        )

        def run():
            return NNBO(
                toy_constrained_quadratic(2),
                n_initial=6,
                max_evaluations=9,
                surrogate=config,
                seed=3,
            ).run()

        np.testing.assert_array_equal(run().x_matrix, run().x_matrix)


def per_member_reference(problem, config: SurrogateConfig, seed):
    """A per-target :class:`SurrogateBO` training each member on its own.

    The serial reference for the stacked bank: one :class:`DeepEnsemble`
    of :class:`NeuralFeatureGP` members per modelled quantity, each member
    trained by a :class:`FeatureGPTrainer` (stateless across members
    without pre-training), drawing the same RNG stream the bank does.
    """

    class TrainedEnsemble(DeepEnsemble):
        def fit(self, x, y):
            trainer = FeatureGPTrainer(
                epochs=config.epochs,
                lr=config.lr,
                pretrain_epochs=config.pretrain_epochs,
                patience=config.patience,
            )
            return super().fit(x, y, trainer=trainer)

    def member(rng):
        return NeuralFeatureGP(
            input_dim=problem.dim,
            hidden_dims=config.hidden_dims,
            n_features=config.n_features,
            activation=config.activation,
            output_activation=config.output_activation,
            seed=rng,
        )

    def factory(rng):
        return TrainedEnsemble.create(member, n_members=config.n_ensemble, seed=rng)

    return SurrogateBO(problem, factory, n_initial=8, max_evaluations=16, seed=seed)


class TestEngineSelection:
    def test_default_engine_is_batched(self):
        nnbo = tiny_nnbo(toy_constrained_quadratic(2))
        assert nnbo.surrogate_bank_factory is not None
        assert nnbo.surrogate_factory is None

    def test_thompson_runs_on_bank(self):
        """Single-point Thompson draws from the bank like every other ask."""
        nnbo = tiny_nnbo(
            toy_constrained_quadratic(2),
            max_evaluations=10,
            acquisition_config=AcquisitionConfig(acquisition="thompson"),
        )
        assert nnbo.surrogate_bank_factory is not None
        assert nnbo.surrogate_factory is None
        assert nnbo.run().n_evaluations == 10

    def test_invalid_engine_rejected(self):
        """The training-engine knob is gone; passing it fails loudly."""
        with pytest.raises(TypeError, match="engine"):
            tiny_nnbo(toy_constrained_quadratic(2), engine="loop")

    def test_batched_and_loop_agree(self):
        """The bank replays the per-member loop exactly: same rng stream,
        numerically equivalent surrogates, same proposals."""
        a = tiny_nnbo(toy_constrained_quadratic(2), seed=4).run()
        b = per_member_reference(toy_constrained_quadratic(2), TINY_NN, seed=4).run()
        np.testing.assert_allclose(a.x_matrix, b.x_matrix, atol=1e-10)

    def test_bank_factory_builds_configured_bank(self):
        from repro.core import SurrogateBank

        nnbo = tiny_nnbo(toy_constrained_quadratic(2), n_ensemble=3)
        bank = nnbo.surrogate_bank_factory(np.random.default_rng(0), 2)
        assert isinstance(bank, SurrogateBank)
        assert bank.n_targets == 2
        assert bank.n_members == 3
        assert bank.n_stack == 6
