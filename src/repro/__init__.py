"""repro — Bayesian optimization for analog circuit synthesis using neural
networks.

A full reproduction of Zhang et al., "Bayesian Optimization Approach for
Analog Circuit Synthesis Using Neural Network" (DATE 2019), including the
neural-network Gaussian-process surrogate, the constrained BO loop, the
WEIBO/GASPAD/DE baselines, and an MNA circuit-simulator substrate with the
paper's two evaluation circuits.

Quickstart::

    from repro import NNBO
    from repro.benchfns import toy_constrained_quadratic

    result = NNBO(toy_constrained_quadratic(), n_initial=10,
                  max_evaluations=30, seed=0).run()
    print(result.best_feasible())
"""

from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo import (
    AcquisitionConfig,
    Evaluation,
    FunctionProblem,
    OptimizationResult,
    Problem,
    SchedulerConfig,
    Study,
    SurrogateBO,
    SurrogateConfig,
    Trial,
)
from repro.core import NNBO
from repro.gp import GPRegression, Matern52, RBF

__version__ = "1.1.0"

__all__ = [
    "AcquisitionConfig",
    "DifferentialEvolution",
    "Evaluation",
    "FunctionProblem",
    "GASPAD",
    "GPRegression",
    "Matern52",
    "NNBO",
    "OptimizationResult",
    "Problem",
    "RBF",
    "SchedulerConfig",
    "Study",
    "SurrogateBO",
    "SurrogateConfig",
    "Trial",
    "WEIBO",
    "__version__",
]
