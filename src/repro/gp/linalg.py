"""Numerically robust linear algebra for GP regression."""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy.linalg import lapack


class CholeskyError(RuntimeError):
    """Raised when a covariance matrix cannot be factorized even with jitter."""


#: first rung of the jitter ladder, relative to ``mean(diag(mat))``.  The
#: escalation below computes rung ``k`` (attempt ``k + 1``; attempt 0 adds
#: no jitter) as ``10.0 ** (k - 10)`` — whose ``k = 0`` value equals this
#: constant bitwise (``10.0 ** -10 == 1e-10``) while keeping every later
#: rung identical to the historical ladder (naive cumulative
#: ``jitter *= 10`` drifts by one ulp at rung 3).
JITTER_START = 1e-10


def jitter_cholesky(mat: np.ndarray, max_tries: int = 6) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix, adding diagonal jitter on failure.

    Covariance matrices built from nearly-duplicate BO samples are often
    numerically semidefinite; progressively larger jitter (starting at
    exactly ``JITTER_START * mean(diag)``, growing 10x per retry) is the
    standard fix.

    Returns the lower-triangular factor ``L`` with ``L @ L.T ≈ mat``.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    diag_mean = float(np.mean(np.diag(mat)))
    if diag_mean <= 0:
        diag_mean = 1.0
    # one identity buffer shared across all retries (the ladder used to
    # rebuild np.eye per attempt)
    eye = np.eye(mat.shape[0])
    jitter = 0.0
    for attempt in range(max_tries):
        if attempt:
            jitter = diag_mean * 10.0 ** (attempt - 1 - 10)
        try:
            return sla.cholesky(mat + jitter * eye, lower=True)
        except sla.LinAlgError:
            pass
    raise CholeskyError(
        f"Cholesky failed after {max_tries} jitter attempts (last jitter {jitter:g})"
    )


def solve_cholesky(chol_lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = rhs`` given the lower factor ``L``."""
    tmp = sla.solve_triangular(chol_lower, rhs, lower=True)
    return sla.solve_triangular(chol_lower.T, tmp, lower=False)


def log_det_from_cholesky(chol_lower: np.ndarray) -> float:
    """``log |A|`` from the lower Cholesky factor of ``A``."""
    return 2.0 * float(np.sum(np.log(np.diag(chol_lower))))


# -- LAPACK fast path + stacked variant (batched surrogate engine) ---------------
#
# The batched NN-GP assembles one ``(S, M, M)`` stack of A-matrices per
# training step (stack-axis convention: see ``repro.nn.batched``) and
# factorizes it slice by slice through :func:`lapack_jitter_cholesky`.
# Two deliberate choices:
#
# * per-slice ``dpotrf`` rather than stacked ``numpy.linalg.cholesky`` —
#   numpy's version is NOT bitwise identical to scipy's (different
#   row-/column-major traversal around ``dpotrf``), and a one-ulp factor
#   difference amplifies chaotically over hundreds of NN training epochs,
#   breaking the engine's equivalence guarantee;
# * direct LAPACK rather than scipy's high-level wrappers — the wrapper
#   validation overhead (~15 us/call) dominates the actual M ~ 50 LAPACK
#   work when invoked S times per epoch.  At these sizes the per-slice
#   calls are a rounding error next to the stacked GEMMs, which are where
#   the batching speedup lives.
#
# The slice loop stays serial.  At M ~ 50 a slice is too small to pay for
# a thread hand-off: a thread pool over the S = 66 posterior stage ran at
# 0.23-0.66x of this loop's speed on a 2-vCPU x86 host.


def lapack_jitter_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor via direct LAPACK ``dpotrf``.

    Produces the exact factor :func:`jitter_cholesky` (and therefore
    ``scipy.linalg.cholesky``) would — same routine, same values — while
    skipping scipy's per-call validation overhead; failures fall back to
    the jitter ladder.  This is the factorization used by the batched
    surrogate engine's hot path.
    """
    chol, info = lapack.dpotrf(mat, lower=1, clean=1)
    if info != 0:
        return jitter_cholesky(mat)
    return chol


def solve_r_and_inverse(
    chol_s: np.ndarray, u_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One ``dpotrs`` for both ``r = A^{-1}u`` and ``A^{-1}`` itself.

    The concatenated right-hand side ``[u | I]`` is solved column by
    column, so each returned piece is bitwise identical to its standalone
    solve.  The ``A^{-1}`` block is returned in LAPACK's column-major
    layout on purpose: downstream GEMMs depend bitwise on operand
    ordering, and the serial path multiplies the (column-major) scipy
    solve output directly.
    """
    m = u_s.shape[0]
    rhs = np.concatenate([u_s[:, None], np.eye(m)], axis=1)
    sol, _ = lapack.dpotrs(chol_s, rhs, lower=1)
    return sol[:, 0], sol[:, 1:]


def batched_jitter_cholesky(mats: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of an SPD stack ``(S, M, M)``.

    Each slice is factorized with :func:`lapack_jitter_cholesky`, so
    jitter escalation on one ill-conditioned member cannot perturb the
    others and every factor is bitwise identical to the serial path's.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"expected an (S, M, M) stack, got shape {mats.shape}")
    out = np.empty_like(mats)
    for s in range(mats.shape[0]):
        out[s] = lapack_jitter_cholesky(mats[s])
    return out
