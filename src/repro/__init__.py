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

#: the ``__all__`` names that :mod:`repro.api` does not export
_GP_NAMES = ("GPRegression", "Matern52", "RBF")


def __getattr__(name: str):
    """Load a public name on first access (PEP 562).

    ``import repro`` then loads no submodule, so a process that needs one
    layer (a slice worker imports only the NN-GP engine) pays for that
    layer alone; :mod:`repro.api` is where the public names are imported.
    """
    if name in _GP_NAMES:
        import repro.gp as home
    elif name in __all__:
        import repro.api as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
