"""Constrained black-box optimization framework.

Problem definitions (eq. 1 form), initial experimental designs, run
histories, the ask/tell :class:`Study` state machine, typed optimizer
configs, and the generic surrogate-based Bayesian-optimization driver
(Algorithm 1) that the paper's NN-GP method and the WEIBO baseline share.
Evaluation dispatch is pluggable: synchronous q-point batches behind a
barrier (:class:`EvaluationScheduler`), the fully asynchronous
refill-on-completion loop of the evaluation farm (``async-*`` executors,
:mod:`repro.farm`), or any external backend driving :class:`Study`
directly.
"""

from repro.bo.config import (
    AcquisitionConfig,
    SchedulerConfig,
    SurrogateConfig,
)
from repro.bo.design import latin_hypercube, random_uniform, sobol_points
from repro.bo.history import EvaluationRecord, OptimizationResult
from repro.bo.loop import SurrogateBO
from repro.bo.problem import Evaluation, FunctionProblem, Problem
from repro.bo.scheduler import (
    AsyncProcessEvaluator,
    AsyncThreadEvaluator,
    EvaluationExecutor,
    EvaluationScheduler,
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
    "AsyncProcessEvaluator",
    "AsyncThreadEvaluator",
    "BudgetExhausted",
    "Evaluation",
    "EvaluationExecutor",
    "EvaluationRecord",
    "EvaluationScheduler",
    "FakeClock",
    "FunctionProblem",
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
