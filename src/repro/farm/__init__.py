"""repro.farm: elastic multi-tenant evaluation farm with speculation.

The farm decouples *tenants* (studies wanting evaluations) from a
shared worker pool:

* :class:`EvaluationFarm` — the pool itself: weighted fair-share
  dispatch across registered tenants, bounded per-tenant queues with
  backpressure, per-task cancel/timeout, live :meth:`resize`;
* :class:`FarmStudyDriver` — drives one ask/tell study through a farm
  in q-point batches behind a barrier, or one or many studies in the
  refill-on-completion loop, adding elastic in-flight sizing,
  speculative runner-up evaluation with promote/abandon, and adaptive
  batch shrinking (see :class:`~repro.bo.config.FarmConfig` /
  :class:`~repro.bo.config.SpeculationConfig`);
* the :class:`FarmError` taxonomy with wire-stable codes.

``SurrogateBO.run`` (and so ``NNBO``) drives every executor through a
single-tenant farm: the barrier loop by default, the refill loop for the
asynchronous specs (``async-thread`` / ``async-process``), whose policy
``SchedulerConfig.farm`` tunes.
"""

from repro.farm.driver import FarmJob, FarmStudyDriver
from repro.farm.errors import (
    EvaluationTimeout,
    FarmError,
    FarmSaturated,
    UnknownTenant,
)
from repro.farm.farm import EvaluationFarm, FarmTask, FarmTenant

__all__ = [
    "EvaluationFarm",
    "EvaluationTimeout",
    "FarmError",
    "FarmJob",
    "FarmSaturated",
    "FarmStudyDriver",
    "FarmTask",
    "FarmTenant",
    "UnknownTenant",
]
