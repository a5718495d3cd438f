"""Constrained black-box optimization framework.

Problem definitions (eq. 1 form), initial experimental designs, run
histories, the ask/tell :class:`Study` state machine, typed optimizer
configs, the generic surrogate-based Bayesian-optimization driver
(Algorithm 1) that the paper's NN-GP method and the WEIBO baseline share,
the paper's method itself (:class:`NNBO`), and the JSON persistence of
runs and study checkpoints (:mod:`repro.bo.serialization`).
The closed loop runs every executor on a single-tenant evaluation farm
(:mod:`repro.farm`): synchronous q-point batches behind its barrier, or
the fully asynchronous refill-on-completion loop for the ``async-*``
executors.  Any external backend can drive :class:`Study` directly
instead.
"""

from repro.bo.config import (
    AcquisitionConfig,
    SchedulerConfig,
    SurrogateConfig,
)
from repro.bo.design import latin_hypercube, random_uniform, sobol_points
from repro.bo.history import EvaluationRecord, OptimizationResult
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.problem import Evaluation, FunctionProblem, Problem
from repro.bo.scheduler import (
    EvaluationExecutor,
    FakeClock,
    ProcessPoolEvaluator,
    ProposalLedger,
    SerialEvaluator,
    ThreadPoolEvaluator,
    make_evaluator,
)
from repro.bo.study import BudgetExhausted, Study, StudyError, Trial

__all__ = [
    "AcquisitionConfig",
    "BudgetExhausted",
    "Evaluation",
    "EvaluationExecutor",
    "EvaluationRecord",
    "FakeClock",
    "FunctionProblem",
    "NNBO",
    "OptimizationResult",
    "Problem",
    "ProcessPoolEvaluator",
    "ProposalLedger",
    "SchedulerConfig",
    "SerialEvaluator",
    "Study",
    "StudyError",
    "SurrogateBO",
    "SurrogateConfig",
    "ThreadPoolEvaluator",
    "Trial",
    "latin_hypercube",
    "make_evaluator",
    "random_uniform",
    "sobol_points",
]
