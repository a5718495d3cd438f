"""Recorded traces: every proposal path against digests of an earlier commit.

The trace pins elsewhere compare two runs of one commit (a study against
``run()``, a farm against an ask/tell replay), so a change that moves
both sides alike passes them.  This file holds the designs themselves to
a fixture: the SHA-256 of each scenario's ``x_matrix`` bytes, recorded by
commit ``6a6b3f8`` (``fixtures/recorded_traces.json``; the five
proposal-space scenarios by commit ``3e9449b``).  The scenarios cover the
per-target (explicit-kernel GP) path at every ask shape, lie strategy,
pending strategy, farm policy, retract and resume, the NN-BO bank's
serial, batch, fantasy-only, retract and resume runs, and the line and
trust-region proposal spaces (serial, batch, async, a resume after the
region has moved, and NN-BO Thompson draws on lines).

The digests are floating-point results of the recording machine; BLAS
and SIMD kernels of other machines round differently.  A precondition
digest (one ``GPRegression`` fit and one tiny ``SurrogateBank`` fit on
fixed data) decides whether this machine computes what that one did; when
it does not, the tests skip.

Regenerate the fixture only on purpose (a change that is meant to move
traces), from the repository root::

    PYTHONPATH=src python tests/bo/test_recorded_traces.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.acquisition.spaces import TrustRegionConfig
from repro.baselines.weibo import WEIBO
from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import (
    AcquisitionConfig,
    FarmConfig,
    SchedulerConfig,
    SpeculationConfig,
    SurrogateConfig,
)
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.problem import FunctionProblem
from repro.bo.scheduler import FakeClock
from repro.bo.study import Study
from repro.gp import GPRegression

FIXTURE = Path(__file__).parent / "fixtures" / "recorded_traces.json"

SMALL_NN = SurrogateConfig(n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20)


def gp_factory(rng):
    return GPRegression(n_restarts=1, seed=rng)


def _quadratic_objective(x):
    return float(np.sum((x - 0.3) ** 2))


def _ring_constraint(x):
    return float(0.04 - np.sum((x - 0.6) ** 2))


def make_problem() -> FunctionProblem:
    return FunctionProblem(
        "picklable_quadratic",
        np.zeros(2),
        np.ones(2),
        objective=_quadratic_objective,
        constraints=[_ring_constraint],
    )


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


# -- the precondition: does this machine round as the recording one did? ------


def machine_digests() -> dict[str, str]:
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(12, 2))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2
    xq = rng.uniform(size=(5, 2))
    gp = gp_factory(np.random.default_rng(1)).fit(x, y)
    bank = SMALL_NN.bank_factory(2)(np.random.default_rng(2), 2)
    bank.fit(x, np.stack([y, x[:, 0] - x[:, 1]]))
    return {
        "gp": sha256(np.concatenate(gp.predict(xq))),
        "bank": sha256(np.concatenate(bank.predict_target(range(2), xq))),
    }


# -- the scenarios -------------------------------------------------------------


def _per_target(n_initial=5, budget=9, seed=11, acquisition=None, scheduler=None):
    return SurrogateBO(
        make_problem(),
        gp_factory,
        n_initial=n_initial,
        max_evaluations=budget,
        acquisition_config=acquisition,
        scheduler_config=scheduler,
        seed=seed,
    ).run()


def _batch(q, **acquisition):
    return _per_target(
        budget=5 + 2 * q,
        acquisition=AcquisitionConfig(**acquisition),
        scheduler=SchedulerConfig(q=q),
    )


def _async(pending_strategy, **acquisition):
    return _per_target(
        acquisition=AcquisitionConfig(pending_strategy=pending_strategy, **acquisition),
        scheduler=SchedulerConfig(
            executor="async-thread", n_eval_workers=3, clock=FakeClock()
        ),
    )


def _farm(farm, speculation, seed, budget):
    return _per_target(
        seed=seed,
        budget=budget,
        scheduler=SchedulerConfig(
            executor="async-thread",
            n_eval_workers=3,
            clock=FakeClock(),
            farm=farm,
            speculation=speculation,
        ),
    )


def _study(**source):
    return Study(make_problem(), n_initial=4, max_evaluations=9, seed=5, **source)


def _drain(study):
    for trial in study.start_initial():
        study.tell(trial, study.problem.evaluate_unit(trial.u))


def _finish(study):
    for trial in study.pending_trials():
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    while not study.done:
        trial = study.ask()[0]
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    return study.result


def _retract_then_ask(**source):
    """Retract a trial whose lie conditions the live fit, then ask again."""
    study = _study(**source)
    _drain(study)
    first = study.ask(1)[0]
    study.ask(1)  # conditioned on ``first``'s lie
    study.retract(first)
    study.ask(1)
    return _finish(study)


def _resume(tmp_path, **source):
    """Checkpoint right after an ask with two trials in flight, resume, ask."""
    study = _study(**source)
    _drain(study)
    study.ask(1)
    study.ask(1)
    path = study.checkpoint(tmp_path / "study.json")
    resumed = Study.resume(path, make_problem(), seed=5, **source)
    resumed.ask(1)  # conditioned on both trials still in flight
    return _finish(resumed)


def _trust_region_resume(tmp_path):
    """Checkpoint once the region has moved off its initial length, resume."""
    source = dict(
        surrogate_factory=gp_factory,
        acquisition=AcquisitionConfig(
            proposal_space="trust-region",
            trust_region=TrustRegionConfig(success_tolerance=2, failure_tolerance=1),
        ),
    )
    study = _study(**source)
    _drain(study)
    for _ in range(2):
        trial = study.ask(1)[0]
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    space = study.optimizer.proposal_space
    assert space.length != space.config.length_init
    study.ask(1)
    path = study.checkpoint(tmp_path / "study.json")
    resumed = Study.resume(path, make_problem(), seed=5, **source)
    return _finish(resumed)


SCENARIOS = {
    "gp-serial": lambda tmp: _per_target(),
    "gp-q3-believer": lambda tmp: _batch(3, fantasy="believer"),
    "gp-q3-cl-min": lambda tmp: _batch(3, fantasy="cl-min"),
    "gp-q3-cl-max": lambda tmp: _batch(3, fantasy="cl-max"),
    "gp-q4-penalize": lambda tmp: _batch(4, pending_strategy="penalize"),
    "gp-q4-hallucinate": lambda tmp: _batch(4, pending_strategy="hallucinate"),
    "gp-async-fantasy": lambda tmp: _async("fantasy"),
    "gp-async-penalize": lambda tmp: _async("penalize"),
    "gp-async-hallucinate": lambda tmp: _async("hallucinate"),
    "gp-farm-speculation": lambda tmp: _farm(
        FarmConfig(), SpeculationConfig(max_speculative=2, max_age_landings=1), 2024, 10
    ),
    "gp-farm-elastic-adaptive-q": lambda tmp: _farm(
        FarmConfig(
            mode="elastic",
            min_in_flight=1,
            max_in_flight=5,
            propose_cost_s=0.5,
            adaptive_q=True,
        ),
        SpeculationConfig(max_speculative=2, max_age_landings=3),
        7,
        11,
    ),
    "gp-trust-region-q2": lambda tmp: _per_target(
        acquisition=AcquisitionConfig(proposal_space="trust-region"),
        scheduler=SchedulerConfig(q=2),
    ),
    "gp-line-serial": lambda tmp: _per_target(
        acquisition=AcquisitionConfig(proposal_space="line")
    ),
    "gp-line-q3-penalize": lambda tmp: _batch(
        3, proposal_space="line", pending_strategy="penalize"
    ),
    "gp-line-async-hallucinate": lambda tmp: _async("hallucinate", proposal_space="line"),
    "gp-trust-region-resume": _trust_region_resume,
    "gp-retract-then-ask": lambda tmp: _retract_then_ask(surrogate_factory=gp_factory),
    "gp-checkpoint-resume": lambda tmp: _resume(tmp, surrogate_factory=gp_factory),
    "weibo": lambda tmp: WEIBO(
        toy_constrained_quadratic(2), n_initial=5, max_evaluations=8, seed=3
    ).run(),
    "nn-serial": lambda tmp: NNBO(
        make_problem(), n_initial=5, max_evaluations=8, surrogate=SMALL_NN, seed=3
    ).run(),
    "nn-q3": lambda tmp: NNBO(
        make_problem(),
        n_initial=5,
        max_evaluations=11,
        surrogate=SMALL_NN,
        scheduler_config=SchedulerConfig(q=3),
        seed=3,
    ).run(),
    "nn-async-fantasy-only": lambda tmp: NNBO(
        make_problem(),
        n_initial=5,
        max_evaluations=11,
        surrogate=SMALL_NN,
        scheduler_config=SchedulerConfig(
            executor="async-thread",
            n_eval_workers=3,
            async_refit="fantasy-only",
            async_full_refit_every=3,
            clock=FakeClock(),
        ),
        seed=1,
    ).run(),
    "nn-line-thompson-q2": lambda tmp: NNBO(
        make_problem(),
        n_initial=5,
        max_evaluations=9,
        surrogate=SMALL_NN,
        acquisition_config=AcquisitionConfig(acquisition="thompson", proposal_space="line"),
        scheduler_config=SchedulerConfig(q=2),
        seed=3,
    ).run(),
    "nn-retract": lambda tmp: _retract_then_ask(surrogate=SMALL_NN),
    "nn-resume": lambda tmp: _resume(tmp, surrogate=SMALL_NN),
}


@pytest.fixture(scope="module")
def recorded():
    fixture = json.loads(FIXTURE.read_text())
    if machine_digests() != fixture["machine"]:
        pytest.skip("this machine's float arithmetic differs from the fixture's")
    return fixture["traces"]


def test_fixture_names_every_scenario():
    assert sorted(json.loads(FIXTURE.read_text())["traces"]) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_the_recording(name, recorded, tmp_path):
    assert sha256(SCENARIOS[name](tmp_path).x_matrix) == recorded[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        traces = {name: sha256(run(Path(tmp)).x_matrix) for name, run in SCENARIOS.items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({"machine": machine_digests(), "traces": traces}, indent=1) + "\n"
    )
    print(f"wrote {len(traces)} traces to {FIXTURE}")
