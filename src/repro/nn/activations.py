"""Element-wise activation layers.

The paper uses ReLU (Sec. III-A); the rest are provided because the
feature-map architecture is configurable and tests exercise them all.
"""

from __future__ import annotations

from repro.backend import resolve_namespace
from repro.nn.layers import Layer

#: the activation names :class:`Activation` accepts
ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "softplus", "identity")

#: negative-side slope of ``"leaky_relu"``
LEAKY_SLOPE = 0.01


class Activation(Layer):
    """Parameter-free element-wise activation, evaluated through an array namespace.

    ``name`` is one of :data:`ACTIVATIONS` (case-insensitive).  Every
    formula goes through the namespace's ops, which on the numpy backend
    are the numpy functions themselves, so one class serves every backend
    without host round trips on accelerators.  The sigmoid (and softplus's
    derivative) clamps its input to +-60 so extreme pre-activations stay
    finite.
    """

    def __init__(self, name: str, backend=None):
        name = str(name).lower()
        if name not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}"
            )
        self.name = name
        self.xb = resolve_namespace(backend)
        self._x = None

    def forward(self, x):
        self._x = self.xb.asarray(x, dtype=float)
        return self._value(self._x)

    def infer(self, x, slices: slice = slice(None)):
        return self._value(x)

    def backward(self, grad_out):
        if self._x is None:
            raise RuntimeError("backward() called before forward()")
        return self.xb.asarray(grad_out, dtype=float) * self._derivative(self._x)

    def _sigmoid(self, x):
        xb = self.xb
        return 1.0 / (1.0 + xb.exp(-xb.clip(x, -60.0, 60.0)))

    def _value(self, x):
        xb = self.xb
        if self.name == "relu":
            return xb.maximum(x, 0.0)
        if self.name == "leaky_relu":
            return xb.where(x > 0.0, x, LEAKY_SLOPE * x)
        if self.name == "tanh":
            return xb.tanh(x)
        if self.name == "sigmoid":
            return self._sigmoid(x)
        if self.name == "softplus":
            return xb.logaddexp(0.0, x)
        return x

    def _derivative(self, x):
        xb = self.xb
        if self.name == "relu":
            # a cast, not ``where(x > 0, 1.0, 0.0)``: same values, half the time
            return xb.asarray(x > 0.0, dtype=float)
        if self.name == "leaky_relu":
            return xb.where(x > 0.0, 1.0, LEAKY_SLOPE)
        if self.name == "tanh":
            return 1.0 - xb.tanh(x) ** 2
        if self.name == "sigmoid":
            s = self._sigmoid(x)
            return s * (1.0 - s)
        if self.name == "softplus":
            return self._sigmoid(x)
        return xb.zeros_like(x) + 1.0

    def __repr__(self) -> str:
        return f"Activation({self.name!r}, backend={self.xb.name})"
