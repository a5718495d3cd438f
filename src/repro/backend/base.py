"""The array-namespace contract the stacked engine codes against.

``repro.backend`` follows the shape of the Python array-API standard: the
engine never imports ``numpy``/``torch``/``cupy`` for hot-path math —
instead every stacked model owns a *namespace object* ``xb`` and calls
``xb.stack`` / ``xb.exp`` / ``xb.batched_cholesky`` / ..., so the same
code runs on whichever array library the namespace wraps.

Contract
--------

A namespace provides four groups of operations:

* **portable array ops** (``asarray``, ``stack``, ``concatenate``,
  ``swapaxes``, ``where``, ``clip``, elementwise math, reductions) with
  numpy ``axis`` semantics;
* **transfer ops** — ``to_device`` (host numpy array -> backend array,
  dtype preserved), ``from_device`` (backend array -> host numpy array),
  and ``as_index`` (host integer/boolean index -> whatever the backend's
  fancy indexing accepts);
* **seeded randomness** — ``standard_normal(rng, shape)`` draws from the
  *host* :class:`numpy.random.Generator` and transfers the result.  This
  is the cross-backend determinism policy: every RNG-dependent quantity
  (weight inits, posterior eps draws) comes from the same numpy stream
  regardless of backend, so backends differ only in floating-point
  reduction order (gated at 1e-5), never in which random numbers they
  consumed;
* **non-portable linalg** — batched Cholesky with jitter escalation
  (``batched_cholesky``), batched posterior solves
  (``batched_solve_r_and_inverse`` / ``batched_cholesky_solve``) and a
  single-slice transposed triangular solve (``solve_lower_transposed``);
  the last two serve accelerator branches only, so the numpy namespace
  omits them (see :mod:`repro.backend.numpy_backend`).

Dtype policy: all backends compute in float64.  The engine's numerical
guarantees (numpy bitwise equivalence, 1e-5 accelerator gate) are stated
for float64; a float32 backend would need its own tolerance story.

Adding a backend means subclassing :class:`ArrayNamespace`, filling in
the four groups for the new library, and registering the name in
``repro.backend.get_namespace``.  The numpy namespace is special: its
portable ops are the *literal numpy functions*, which is what makes the
default path bitwise identical to pre-backend code by construction.
"""

from __future__ import annotations

import numpy as np


class ArrayNamespace:
    """Base class for array-library namespaces (see module docstring).

    Subclasses set ``name``/``is_numpy`` and implement the array,
    transfer and linalg groups.  Only the pieces shared verbatim across
    backends live here.
    """

    name: str = "abstract"
    is_numpy: bool = False
    device = None

    # -- seeded randomness (shared policy: draw on host, then transfer) --------

    def standard_normal(self, rng: np.random.Generator, shape) -> object:
        """A seeded N(0, 1) draw usable on this backend.

        Always consumes the host numpy generator (see module docstring:
        the determinism policy), then transfers the values.
        """
        return self.to_device(rng.standard_normal(shape))

    # -- transfer defaults ------------------------------------------------------

    def to_device(self, array):
        raise NotImplementedError

    def from_device(self, array) -> np.ndarray:
        raise NotImplementedError

    def as_index(self, idx):
        """Adapt a host integer/boolean index array for fancy indexing."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(device={self.device!r})"
