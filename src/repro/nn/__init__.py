"""A small, self-contained neural-network library built on numpy.

The paper's surrogate (Sec. III-A, Fig. 1) needs a 4-layer fully-connected
network whose weights are trained by back-propagating the gradient of the
GP marginal likelihood (eq. 12).  No deep-learning framework is assumed:
this package provides exactly the pieces required — stacked dense layers
and activations with an explicit backward pass, weight initializers and
a stacked Adam — with ``(S, P)`` parameter-row access so each slice's GP
hyper-parameters (sigma_n, sigma_p) and network weights are optimized
jointly.  Every array carries a leading stack axis: one call advances
the S networks of a surrogate bank at once.
"""

from repro.nn.activations import Activation
from repro.nn.batched import BatchedLinear, BatchedSequential, make_batched_mlp
from repro.nn.initializers import he_normal, xavier_uniform
from repro.nn.layers import Layer
from repro.nn.optimizers import StackedAdam

__all__ = [
    "Activation",
    "BatchedLinear",
    "BatchedSequential",
    "Layer",
    "StackedAdam",
    "he_normal",
    "make_batched_mlp",
    "xavier_uniform",
]
