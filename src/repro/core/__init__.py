"""The paper's primary contribution: the neural-network Gaussian process.

* :class:`NeuralFeatureGP` — weight-space GP whose kernel is the inner
  product of learned neural features (Sec. III-A, eq. 8–11),
* :class:`FeatureGPTrainer` — joint maximum-likelihood training of GP
  scales and network weights by back-propagation (Sec. III-B, eq. 12),
* :class:`DeepEnsemble` — moment-matched model averaging over K randomly
  initialized members (Sec. III-C, eq. 13),
* :class:`NNBO` — the full constrained Bayesian-optimization algorithm
  (Algorithm 1 / Fig. 2).

Performance architecture — the batched surrogate engine
-------------------------------------------------------

One NN-BO iteration fits ``S = K x T`` models (K ensemble members for
each of the objective + constraints).  The batched engine trains them all
as one tensor program over arrays with a leading *stack axis* ``(S, ...)``
— weights ``(S, in, out)``, features ``(S, N, M)``, A-matrices
``(S, M, M)`` — with slice ``s = t * K + k`` holding member ``k`` of
target ``t``:

* :class:`BatchedNeuralFeatureGP` — S feature-GPs advanced by stacked
  GEMMs (``repro.nn.batched``) plus per-slice LAPACK for the M x M
  factorizations,
* :class:`BatchedFeatureGPTrainer` — the stacked trainer; every slice
  follows the exact update sequence a dedicated
  :class:`FeatureGPTrainer` would apply,
* :class:`SurrogateBank` — the BO-facing front-end: one ``fit`` for all
  targets, per-target moment-matched ``predict`` views.

The engine is numerically equivalent to training the members one by one
(means bitwise, variances to ~1e-16; pinned by
``tests/core/test_batched_gp.py``), and :class:`NNBO` always fits through
it, for wEI and Thompson sampling alike.  The per-member classes above
stay as the reference those equivalence tests compare against; the
complexity and ablation experiments build them directly, and
:func:`repro.utils.save_model` persists them.
``benchmarks/bench_batched_engine.py`` measures the speedup on a
charge-pump-sized workload.
"""

from repro.core.batched_gp import (
    BatchedNeuralFeatureGP,
    SurrogateBank,
    serial_reference_bank,
)
from repro.core.ensemble import DeepEnsemble
from repro.core.feature_gp import NeuralFeatureGP
from repro.core.trainer import BatchedFeatureGPTrainer, FeatureGPTrainer
from repro.core.bo import NNBO

__all__ = [
    "BatchedFeatureGPTrainer",
    "BatchedNeuralFeatureGP",
    "DeepEnsemble",
    "FeatureGPTrainer",
    "NeuralFeatureGP",
    "NNBO",
    "SurrogateBank",
    "serial_reference_bank",
]
