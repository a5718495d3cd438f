"""CuPy backend: the stacked engine on CUDA via cupy arrays.

Importing this module requires ``cupy``; :func:`repro.backend.get_namespace`
guards the import and raises :class:`~repro.backend.BackendNotAvailable`
naming the missing package when it is absent.

CuPy mirrors the numpy API closely, so most portable ops are literal
``cupy`` functions.  Math runs in float64 and randomness is drawn
host-side from numpy generators then transferred (the shared policies —
see ``repro.backend.base``).  Factorizations use the batched
``cupy.linalg.cholesky`` with the numpy path's relative-jitter ladder;
posterior solves run through ``cupyx.scipy.linalg.solve_triangular``
pairs on the stacked factors.
"""

from __future__ import annotations

import numpy as np

import cupy
from cupyx.scipy import linalg as cusla

from repro.backend.base import ArrayNamespace
from repro.gp.linalg import JITTER_START, CholeskyError


class CupyNamespace(ArrayNamespace):
    """CuPy namespace; see module docstring."""

    name = "cupy"
    is_numpy = False

    asarray = staticmethod(cupy.asarray)
    zeros = staticmethod(cupy.zeros)
    ones = staticmethod(cupy.ones)
    full = staticmethod(cupy.full)
    eye = staticmethod(cupy.eye)
    empty = staticmethod(cupy.empty)
    zeros_like = staticmethod(cupy.zeros_like)
    empty_like = staticmethod(cupy.empty_like)
    stack = staticmethod(cupy.stack)
    concatenate = staticmethod(cupy.concatenate)
    vstack = staticmethod(cupy.vstack)
    swapaxes = staticmethod(cupy.swapaxes)
    where = staticmethod(cupy.where)
    clip = staticmethod(cupy.clip)
    exp = staticmethod(cupy.exp)
    log = staticmethod(cupy.log)
    sqrt = staticmethod(cupy.sqrt)
    tanh = staticmethod(cupy.tanh)
    logaddexp = staticmethod(cupy.logaddexp)
    maximum = staticmethod(cupy.maximum)
    isfinite = staticmethod(cupy.isfinite)
    sum = staticmethod(cupy.sum)

    def __init__(self, device: str | int | None = None):
        if device is None:
            self._device_id = 0
        else:
            text = str(device)
            self._device_id = int(text.split(":")[-1]) if ":" in text else int(text)
        self.device = f"cuda:{self._device_id}"

    @staticmethod
    def diagonal(x):
        return cupy.diagonal(x, axis1=-2, axis2=-1)

    @staticmethod
    def copy(x):
        return x.copy()

    # -- transfer ---------------------------------------------------------------

    def to_device(self, array):
        with cupy.cuda.Device(self._device_id):
            return cupy.asarray(array)

    def from_device(self, array) -> np.ndarray:
        if isinstance(array, cupy.ndarray):
            return cupy.asnumpy(array)
        return np.asarray(array)

    def as_index(self, idx):
        return self.to_device(np.asarray(idx))

    # -- linalg -----------------------------------------------------------------

    def batched_cholesky(self, mats, max_tries: int = 6):
        """Batched ``cupy.linalg.cholesky`` with relative-jitter escalation."""
        eye = self.eye(mats.shape[-1])
        diag_mean = cupy.maximum(self.diagonal(mats).mean(axis=-1), 0.0)
        diag_mean = cupy.where(diag_mean > 0, diag_mean, cupy.ones_like(diag_mean))
        jitter = cupy.zeros(mats.shape[0])
        for attempt in range(max_tries):
            try:
                return cupy.linalg.cholesky(mats + jitter[:, None, None] * eye)
            except cupy.linalg.LinAlgError:
                jitter = diag_mean * (JITTER_START * 10.0**attempt)
        raise CholeskyError(
            f"batched Cholesky failed after {max_tries} jitter attempts"
        )

    def batched_cholesky_solve(self, chol, u):
        """Batched ``A^{-1} u`` via two stacked triangular solves."""
        return self.batched_solve_r_and_inverse(chol, u, with_inverse=False)[0]

    def batched_solve_r_and_inverse(self, chol, u, with_inverse: bool = True):
        """Batched ``(A^{-1} u, A^{-1})`` through per-slice triangular solves."""
        s_stack, m = u.shape
        if with_inverse:
            eye = cupy.broadcast_to(self.eye(m), (s_stack, m, m))
            rhs = cupy.concatenate([u[..., None], eye], axis=2)
        else:
            rhs = u[..., None]
        sol = cupy.empty_like(rhs)
        for s in range(s_stack):
            tmp = cusla.solve_triangular(chol[s], rhs[s], lower=True)
            sol[s] = cusla.solve_triangular(
                chol[s], tmp, lower=True, trans="T"
            )
        if with_inverse:
            return sol[..., 0], cupy.ascontiguousarray(sol[..., 1:])
        return sol[..., 0], None

    def solve_lower_transposed(self, chol_2d, rhs):
        """Single-slice ``L^T x = rhs`` (posterior weight sampling)."""
        return cusla.solve_triangular(chol_2d, rhs, lower=True, trans="T")
