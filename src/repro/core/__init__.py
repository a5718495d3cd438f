"""The paper's primary contribution: the neural-network Gaussian process.

This package is the engine alone, and it imports nothing of the BO stack
above it (``utils < gp < backend < nn < core < acquisition``, enforced by
``tests/test_import_layers.py``): a slice worker loads only what a fit
needs.  :class:`~repro.bo.loop.NNBO`, the algorithm that drives the
engine, lives with the driver in :mod:`repro.bo`.

One BO iteration fits ``S = K x T`` models: K ensemble members for each
of the objective + constraints.  The engine trains them all as one tensor
program over arrays with a leading *stack axis* ``(S, ...)`` — weights
``(S, in, out)``, features ``(S, N, M)``, A-matrices ``(S, M, M)`` — with
slice ``s = t * K + k`` holding member ``k`` of target ``t``:

* :class:`BatchedNeuralFeatureGP` — S weight-space GPs whose kernels are
  the inner products of learned neural features (Sec. III-A, eq. 8–11),
  advanced by stacked GEMMs (``repro.nn.batched``) plus per-slice LAPACK
  for the M x M factorizations; ``n_stack=1`` is a single model,
* :class:`BatchedFeatureGPTrainer` — joint maximum-likelihood training of
  GP scales and network weights by back-propagation (Sec. III-B, eq. 12),
  every slice on its own schedule,
* :class:`SurrogateBank` — the BO-facing front-end: one ``fit`` for all
  targets, per-target moment-matched ensemble ``predict`` views over K
  randomly initialized members (Sec. III-C, eq. 13).

The engine is numerically equivalent to training the members one by one
(means bitwise, variances to ~1e-16).  ``tests/per_member_engine.py``
keeps that one-at-a-time engine as the reference, and
``tests/core/test_batched_gp.py`` pins the equivalence;
``benchmarks/bench_batched_engine.py`` measures the speedup on a
charge-pump-sized workload.
"""

from repro.core.batched_gp import BatchedNeuralFeatureGP, SurrogateBank
from repro.core.trainer import BatchedFeatureGPTrainer

__all__ = [
    "BatchedFeatureGPTrainer",
    "BatchedNeuralFeatureGP",
    "SurrogateBank",
]
