"""PyTorch backend: the stacked engine on torch tensors (CPU or CUDA).

Importing this module requires ``torch``; :func:`repro.backend.get_namespace`
guards the import and raises :class:`~repro.backend.BackendNotAvailable`
naming the missing package when it is absent.

All math runs in ``torch.float64`` (the engine's dtype policy) and all
randomness is drawn host-side from numpy generators then transferred
(the determinism policy — see ``repro.backend.base``), so a torch run
consumes exactly the random stream a numpy run does.  Results differ
from numpy only through GEMM/factorization reduction order; the
posterior-equivalence tests gate that at 1e-5.

Batched factorizations use ``torch.linalg.cholesky_ex`` (one fused call
for the whole ``(S, M, M)`` stack, no per-slice Python loop) with the
same relative-jitter escalation ladder the numpy path applies, and the
posterior solves use ``torch.cholesky_solve`` on the concatenated
``[u | I]`` right-hand side.
"""

from __future__ import annotations

import numpy as np

import torch

from repro.backend.base import ArrayNamespace
from repro.gp.linalg import JITTER_START, CholeskyError


class TorchNamespace(ArrayNamespace):
    """Torch namespace; see module docstring."""

    name = "torch"
    is_numpy = False

    def __init__(self, device: str | None = None):
        self.torch = torch
        self.device = torch.device(device if device is not None else "cpu")
        self.dtype = torch.float64

    # -- creation ---------------------------------------------------------------

    def asarray(self, x, dtype=None):
        return torch.as_tensor(x, dtype=self.dtype, device=self.device)

    def zeros(self, shape):
        return torch.zeros(shape, dtype=self.dtype, device=self.device)

    def ones(self, shape):
        return torch.ones(shape, dtype=self.dtype, device=self.device)

    def full(self, shape, value):
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return torch.full(shape, float(value), dtype=self.dtype, device=self.device)

    def eye(self, n):
        return torch.eye(n, dtype=self.dtype, device=self.device)

    def empty(self, shape):
        return torch.empty(shape, dtype=self.dtype, device=self.device)

    def zeros_like(self, x):
        return torch.zeros_like(x)

    def empty_like(self, x):
        return torch.empty_like(x)

    # -- manipulation -----------------------------------------------------------

    def stack(self, seq, axis=0):
        return torch.stack([self.asarray(a) for a in seq], dim=axis)

    def concatenate(self, seq, axis=0):
        return torch.cat([self.asarray(a) for a in seq], dim=axis)

    def vstack(self, seq):
        return torch.vstack([self.asarray(a) for a in seq])

    def swapaxes(self, x, axis1, axis2):
        return torch.swapaxes(x, axis1, axis2)

    def where(self, cond, a, b):
        if not torch.is_tensor(a):
            a = torch.as_tensor(a, dtype=self.dtype, device=self.device)
        if not torch.is_tensor(b):
            b = torch.as_tensor(b, dtype=self.dtype, device=self.device)
        return torch.where(cond, a, b)

    def clip(self, x, lo, hi):
        return torch.clamp(x, min=lo, max=hi)

    def diagonal(self, x):
        return torch.diagonal(x, dim1=-2, dim2=-1)

    def copy(self, x):
        return x.clone()

    # -- math -------------------------------------------------------------------

    def exp(self, x):
        return torch.exp(x)

    def log(self, x):
        return torch.log(self.asarray(x))

    def sqrt(self, x):
        return torch.sqrt(self.asarray(x))

    def tanh(self, x):
        return torch.tanh(x)

    def logaddexp(self, a, b):
        return torch.logaddexp(self.asarray(a), self.asarray(b))

    def maximum(self, a, b):
        return torch.maximum(self.asarray(a), self.asarray(b))

    def isfinite(self, x):
        return torch.isfinite(x)

    def sum(self, x, axis=None):
        if axis is None:
            return torch.sum(x)
        return torch.sum(x, dim=axis)

    # -- transfer ---------------------------------------------------------------

    def to_device(self, array):
        return torch.as_tensor(array, device=self.device)

    def from_device(self, array) -> np.ndarray:
        if torch.is_tensor(array):
            return array.detach().cpu().numpy()
        return np.asarray(array)

    def as_index(self, idx):
        return torch.as_tensor(np.asarray(idx), device=self.device)

    # -- linalg -----------------------------------------------------------------

    def batched_cholesky(self, mats, max_tries: int = 6):
        """Fused ``cholesky_ex`` over the stack with relative-jitter escalation.

        Mirrors the numpy ladder (start ``JITTER_START * mean(diag)``,
        x10 per retry) but applies jitter to the whole failing stack at
        once — torch reports failures per slice via ``info``, and adding
        jitter only where needed would force a slice loop.
        """
        chol, info = torch.linalg.cholesky_ex(mats)
        if not bool((info != 0).any()):
            return chol
        eye = self.eye(mats.shape[-1])
        diag_mean = torch.clamp(self.diagonal(mats).mean(dim=-1), min=0.0)
        diag_mean = torch.where(diag_mean > 0, diag_mean, torch.ones_like(diag_mean))
        for attempt in range(max_tries):
            jitter = diag_mean * (JITTER_START * 10.0**attempt)
            chol_j, info = torch.linalg.cholesky_ex(
                mats + jitter[:, None, None] * eye
            )
            bad = (info != 0)[:, None, None]
            chol = torch.where(bad.expand_as(chol), chol, chol_j)
            if not bool(bad.any()):
                return chol
        raise CholeskyError(
            f"batched Cholesky failed after {max_tries} jitter attempts"
        )

    def batched_cholesky_solve(self, chol, u):
        """Batched ``A^{-1} u`` from the stacked lower factors."""
        return torch.cholesky_solve(u[..., None], chol, upper=False)[..., 0]

    def batched_solve_r_and_inverse(self, chol, u):
        """Batched ``(A^{-1} u, A^{-1})`` via one ``cholesky_solve`` on ``[u | I]``."""
        s_stack, m = u.shape
        eye = self.eye(m).expand(s_stack, m, m)
        rhs = torch.cat([u[..., None], eye], dim=2)
        sol = torch.cholesky_solve(rhs, chol, upper=False)
        return sol[..., 0], sol[..., 1:].contiguous()

    def solve_lower_transposed(self, chol_2d, rhs):
        """Single-slice ``L^T x = rhs`` (posterior weight sampling)."""
        sol = torch.linalg.solve_triangular(
            chol_2d.mT, rhs[:, None], upper=True
        )
        return sol[:, 0]
