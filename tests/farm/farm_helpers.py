"""Shared helpers for the farm suite.

Module-level callables so the problems pickle into process-pool workers
(same idiom as ``tests/bo/test_scheduler.py``), plus
:func:`replay_study`, the plain ask/tell reference loop the farm driver's
fake-clock traces are pinned against.
"""

import numpy as np

from repro.bo.problem import FunctionProblem
from repro.gp import GPRegression


def gp_factory(rng):
    return GPRegression(n_restarts=1, seed=rng)


def _quadratic_objective(x):
    return float(np.sum((x - 0.3) ** 2))


def _ring_constraint(x):
    return float(0.04 - np.sum((x - 0.6) ** 2))


def make_picklable_problem(dim: int = 2) -> FunctionProblem:
    return FunctionProblem(
        "picklable_quadratic",
        np.zeros(dim),
        np.ones(dim),
        objective=_quadratic_objective,
        constraints=[_ring_constraint],
    )


def _shifted_objective(x):
    return float(np.sum((x - 0.7) ** 2))


def make_second_problem(dim: int = 2) -> FunctionProblem:
    """A second, distinct problem for multi-tenant tests."""
    return FunctionProblem(
        "picklable_shifted",
        np.zeros(dim),
        np.ones(dim),
        objective=_shifted_objective,
        constraints=[_ring_constraint],
    )


def replay_study(study, clock, n_workers: int):
    """Reference refill loop: a fake-clock completion order over ask/tell.

    Tells the initial design in design order, then keeps ``n_workers``
    ``ask(1)`` trials in flight and always tells the one with the
    smallest ``(virtual_ready, seq)``; each new trial is due at the
    latest landing's virtual time plus ``clock.duration(u)``.  Designs
    are simulated inline — only the commit order is virtual.
    """
    problem = study.problem
    for trial in study.start_initial():
        study.tell(trial, problem.evaluate_unit(trial.u))
    in_flight = []  # (virtual_ready, seq, trial)
    now, seq = 0.0, 0
    while True:
        while len(in_flight) < n_workers and study.remaining_capacity > 0:
            trial = study.ask(1)[0]
            ready = now + clock.duration(trial.u)
            study.ledger.entry(trial.proposal_id).virtual_ready = ready
            in_flight.append((ready, seq, trial))
            seq += 1
        if not in_flight:
            return study.result
        landing = min(range(len(in_flight)), key=lambda i: in_flight[i][:2])
        ready, _, trial = in_flight.pop(landing)
        now = max(now, ready)
        study.tell(trial, problem.evaluate_unit(trial.u))
