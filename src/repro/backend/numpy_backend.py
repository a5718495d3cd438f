"""The default (and reference) backend: plain numpy on the host CPU.

Every portable op below is the *literal numpy function* — ``xb.stack is
np.stack`` — so code routed through this namespace executes the identical
call sequence the pre-backend engine made, which is how the numpy path
keeps its bitwise-equivalence guarantee by construction rather than by
testing alone.

The linalg ops are plain serial loops over the slices of the
``(S, M, M)`` stack, one LAPACK call per slice.  Only ``batched_cholesky``
and ``batched_solve_r_and_inverse`` exist here: the engine's numpy
branches run their other solves inline (``marginal_nll``'s slice loop,
the direct ``dtrtrs`` of posterior weight sampling).
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayNamespace
from repro.gp.linalg import batched_jitter_cholesky, solve_r_and_inverse


class NumpyNamespace(ArrayNamespace):
    """Host-CPU numpy namespace; see module docstring."""

    name = "numpy"
    is_numpy = True
    device = "cpu"

    # -- portable ops: literal numpy functions ---------------------------------

    asarray = staticmethod(np.asarray)
    zeros = staticmethod(np.zeros)
    ones = staticmethod(np.ones)
    full = staticmethod(np.full)
    eye = staticmethod(np.eye)
    empty = staticmethod(np.empty)
    zeros_like = staticmethod(np.zeros_like)
    empty_like = staticmethod(np.empty_like)
    stack = staticmethod(np.stack)
    concatenate = staticmethod(np.concatenate)
    vstack = staticmethod(np.vstack)
    swapaxes = staticmethod(np.swapaxes)
    where = staticmethod(np.where)
    clip = staticmethod(np.clip)
    exp = staticmethod(np.exp)
    log = staticmethod(np.log)
    sqrt = staticmethod(np.sqrt)
    tanh = staticmethod(np.tanh)
    logaddexp = staticmethod(np.logaddexp)
    maximum = staticmethod(np.maximum)
    isfinite = staticmethod(np.isfinite)
    sum = staticmethod(np.sum)

    def __init__(self, device: str | None = None):
        if device not in (None, "cpu"):
            raise ValueError(
                f"the numpy backend runs on the host CPU only, got device={device!r}"
            )

    # -- array helpers ----------------------------------------------------------

    @staticmethod
    def diagonal(x: np.ndarray) -> np.ndarray:
        return np.diagonal(x, axis1=-2, axis2=-1)

    @staticmethod
    def copy(x: np.ndarray) -> np.ndarray:
        return x.copy()

    # -- transfer: everything already lives on the host -------------------------

    def to_device(self, array):
        return array

    def from_device(self, array) -> np.ndarray:
        return array

    def as_index(self, idx):
        return idx

    # -- linalg: per-slice LAPACK loops -----------------------------------------

    def batched_cholesky(self, mats: np.ndarray) -> np.ndarray:
        """Per-slice LAPACK ``dpotrf`` with jitter fallback."""
        return batched_jitter_cholesky(mats)

    def batched_solve_r_and_inverse(
        self, chol: np.ndarray, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-slice ``(A^{-1} u, A^{-1})`` sharing one ``dpotrs`` each."""
        s_stack, m = u.shape
        r = np.empty((s_stack, m))
        a_inv = np.empty_like(chol)
        for s in range(s_stack):
            r[s], a_inv[s] = solve_r_and_inverse(chol[s], u[s])
        return r, a_inv
