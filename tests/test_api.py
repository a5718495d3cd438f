"""Tests for the stable ``repro.api`` facade.

The facade is the compatibility contract: every name in ``__all__`` must
resolve, and the blessed ask/tell workflow must be drivable end to end
without touching any deprecated surface (enforced by turning repro-internal
``DeprecationWarning`` into errors — the same gate CI runs suite-wide).
"""

import warnings

import numpy as np


def test_all_names_resolve():
    import repro.api as api

    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing, f"repro.api.__all__ names missing: {missing}"


def test_all_is_sorted_and_unique():
    import repro.api as api

    assert list(api.__all__) == sorted(set(api.__all__))


def test_top_level_package_exports_ask_tell_surface():
    """``repro`` loads its names on first access, so every one is checked."""
    import repro

    for name in ("Study", "Trial", "SurrogateConfig", "SchedulerConfig"):
        assert name in repro.__all__
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert not missing, f"repro.__all__ names missing: {missing}"


def test_blessed_workflow_is_deprecation_free():
    """The documented ask/tell example runs with DeprecationWarning=error."""
    from repro.api import AcquisitionConfig, FunctionProblem, Study

    problem = FunctionProblem(
        "api_smoke",
        np.zeros(2),
        np.ones(2),
        objective=lambda x: float(np.sum((x - 0.4) ** 2)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        study = Study(
            problem,
            surrogate_factory=_gp_factory,
            acquisition=AcquisitionConfig(),
            n_initial=4,
            max_evaluations=7,
            seed=0,
        )
        for trial in study.start_initial():
            study.tell(trial, problem.evaluate_unit(trial.u))
        while not study.done:
            trial = study.ask()[0]
            study.tell(trial, float(problem.evaluate(trial.x).objective))
    assert study.result.n_evaluations == 7
    assert study.best() is not None


def _gp_factory(rng):
    from repro.gp import GPRegression

    return GPRegression(n_restarts=1, seed=rng)
