"""Layer abstraction: forward pass, backward pass, parameter access."""

from __future__ import annotations

import numpy as np


class Layer:
    """Base class for differentiable layers.

    A layer maps a batch ``x`` to its output and, given the upstream
    gradient of a scalar loss w.r.t. that output, returns the gradient
    w.r.t. its input while accumulating gradients w.r.t. its own
    parameters.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output and cache what backward needs."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Propagate ``dL/d(output)`` to ``dL/d(input)``; store param grads."""
        raise NotImplementedError

    def infer(self, x, slices: slice = slice(None)):
        """Prediction-only forward over the stack slices ``slices``.

        Caches nothing for :meth:`backward` and checks nothing: the caller
        validates its input once.
        """
        raise NotImplementedError

    @property
    def params(self) -> list[np.ndarray]:
        """Live references to this layer's parameter arrays."""
        return []

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradients matching :attr:`params`, filled by :meth:`backward`."""
        return []

    def zero_grad(self):
        """Reset accumulated parameter gradients to zero."""
        for g in self.grads:
            g[...] = 0.0
