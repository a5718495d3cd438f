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
        hyper-parameters (K, architecture, trainer settings, array
        backend).  Every iteration fits the objective and all constraint
        ensembles as one stacked tensor program
        (:class:`~repro.core.batched_gp.SurrogateBank`), for wEI and
        Thompson sampling alike.
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
        self.surrogate_config = surrogate
        super().__init__(
            problem,
            n_initial=n_initial,
            max_evaluations=max_evaluations,
            initial_design=initial_design,
            name=name,
            acq_maximizer=acq_maximizer,
            surrogate_bank_factory=surrogate.bank_factory(problem.dim),
            acquisition_config=acquisition_config,
            scheduler_config=scheduler_config,
            seed=seed,
            verbose=verbose,
            callback=callback,
        )
