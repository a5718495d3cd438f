"""The paper's complete algorithm: NN-GP ensemble Bayesian optimization.

``NNBO`` is Algorithm 1 with the surrogate of Sec. III: each iteration
builds K = 5 independently initialized :class:`NeuralFeatureGP` models per
modelled quantity, trains them by marginal-likelihood back-propagation,
combines them by moment matching (eq. 13) and maximizes the wEI
acquisition (eq. 7) to pick the next simulation.

Model hyper-parameters live in a typed
:class:`~repro.bo.config.SurrogateConfig`, alongside the driver-level
acquisition and scheduler configs.
"""

from __future__ import annotations

from repro.bo.config import AcquisitionConfig, SchedulerConfig, SurrogateConfig
from repro.bo.loop import SurrogateBO
from repro.bo.problem import Problem
from repro.core.ensemble import DeepEnsemble


class _TrainedEnsemble:
    """Adapter giving a :class:`DeepEnsemble` a plain ``fit(x, y)`` interface.

    Each member gets a freshly configured trainer so that trainer state
    (Adam moments, loss history) never leaks between members or targets.
    """

    def __init__(self, ensemble: DeepEnsemble, trainer_factory):
        self._ensemble = ensemble
        self._trainer_factory = trainer_factory

    def fit(self, x, y):
        for member in self._ensemble.members:
            member.fit(x, y, trainer=self._trainer_factory())
        return self

    def predict(self, x):
        return self._ensemble.predict(x)

    def condition_on(self, x_new, y_new):
        """Posterior-only fantasy update of every member (no retraining)."""
        for member in self._ensemble.members:
            member.condition_on(x_new, y_new)
        return self

    @property
    def members(self):
        return self._ensemble.members


class NNBO(SurrogateBO):
    """Bayesian optimization using the neural-network GP (paper Algorithm 1).

    Parameters mirror the paper's experimental setup; Table I uses
    ``n_initial=30, max_evaluations=100`` and Table II
    ``n_initial=100, max_evaluations=790`` with ``n_ensemble=5``.

    Parameters
    ----------
    problem:
        Constrained sizing problem (eq. 1).
    surrogate:
        A :class:`~repro.bo.config.SurrogateConfig` with the ensemble
        hyper-parameters (K, architecture, trainer settings) and the
        training engine (``"batched"`` fits the objective and all
        constraint ensembles as one stacked tensor program; ``"loop"``
        trains the K x T members one by one; ``"auto"`` picks batched
        except for single-point Thompson).
    acquisition_config, scheduler_config:
        Driver-level configs, as on :class:`~repro.bo.loop.SurrogateBO`.
    acq_maximizer, seed, verbose, callback:
        As on :class:`~repro.bo.loop.SurrogateBO`.
    """

    algorithm_name = "NN-BO"

    def __init__(
        self,
        problem: Problem,
        n_initial: int = 30,
        max_evaluations: int = 100,
        *,
        acq_maximizer=None,
        seed=None,
        verbose: bool = False,
        callback=None,
        initial_design: str = "lhs",
        name: str | None = None,
        surrogate: SurrogateConfig | None = None,
        acquisition_config: AcquisitionConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
    ):
        if surrogate is None:
            surrogate = SurrogateConfig()
        if acquisition_config is None:
            acquisition_config = AcquisitionConfig()
        if scheduler_config is None:
            scheduler_config = SchedulerConfig()
        self.surrogate_config = surrogate
        #: the concrete training engine (``SurrogateConfig.engine="auto"``
        #: resolved against the acquisition family and batch size)
        self.engine = surrogate.resolve_engine(
            acquisition_config.acquisition, scheduler_config.q
        )

        member_factory = surrogate.member_factory(problem.dim)
        trainer_factory = surrogate.trainer_factory

        def surrogate_factory(rng):
            ensemble = DeepEnsemble.create(
                member_factory, n_members=surrogate.n_ensemble, seed=rng
            )
            return _TrainedEnsemble(ensemble, trainer_factory)

        super().__init__(
            problem,
            surrogate_factory,
            n_initial=n_initial,
            max_evaluations=max_evaluations,
            initial_design=initial_design,
            name=name,
            acq_maximizer=acq_maximizer,
            surrogate_bank_factory=(
                surrogate.bank_factory(problem.dim)
                if self.engine == "batched"
                else None
            ),
            acquisition_config=acquisition_config,
            scheduler_config=scheduler_config,
            seed=seed,
            verbose=verbose,
            callback=callback,
        )
