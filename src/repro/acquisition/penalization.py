"""Async-aware acquisition: local penalization and hallucinated UCB.

The batch/async proposers of PRs 2-3 coordinate concurrent picks by
*lying*: each pending design is absorbed into the surrogate as a fantasy
observation (constant liar / Kriging believer) and the acquisition is
re-maximized.  Lies work, but they fabricate data — a bad lie biases the
posterior until the real value lands, and every lie pays a posterior
refactorization.  This module implements the two standard lie-free
alternatives, selectable as ``AcquisitionConfig(pending_strategy=...)``:

* ``"penalize"`` — local penalization (Gonzalez et al. 2016, "Batch
  Bayesian optimization via local penalization").  The acquisition is
  evaluated on the *clean* posterior and multiplied by one penalty factor
  per pending point: ``phi(x; x_j)`` is the probability that the minimizer
  lies outside the exclusion ball around ``x_j`` implied by a Lipschitz
  bound on the objective.  Pending points predicted to be bad carve large
  exclusion balls; promising ones small balls — exactly the geometry the
  lies approximate, without touching the posterior.
* ``"hallucinate"`` — hallucinated confidence bounds (Desautels et al.
  2014, GP-BUCB).  Pending points are conditioned at their own posterior
  mean (a "hallucinated" observation: the mean surface is unchanged, the
  variance collapses near the pending set) and the acquisition switches to
  an optimistic improvement bound ``max(tau - (mu - kappa * sigma), 0)``
  weighted by the feasibility product.  The variance shrinkage alone
  steers the next pick away from in-flight designs; ``kappa`` plays the
  role of GP-BUCB's inflated confidence multiplier.

Both strategies are deterministic given the surrogate state: the Lipschitz
estimate samples a fixed internal low-discrepancy stream, so traces stay a
pure function of ``(seed, completion order)`` — the async replay contract.
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.wei import WeightedExpectedImprovement

#: valid ``pending_strategy`` values for the batch/async proposers
PENDING_STRATEGIES = ("fantasy", "penalize", "hallucinate")

#: floor for the Lipschitz estimate: a flat posterior mean must still
#: yield a usable (tiny-ball) penalizer instead of dividing by zero
_MIN_LIPSCHITZ = 1e-6

_MIN_SIGMA = 1e-12


def estimate_lipschitz(
    predict,
    dim: int,
    n_samples: int = 32,
    step: float = 1e-4,
    seed: int = 0,
) -> float:
    """Max-gradient-norm Lipschitz estimate of a posterior mean surface.

    Central finite differences of the mean that ``predict(x) -> (mean,
    var)`` returns, at ``n_samples`` uniform points in the unit box, all
    evaluated in ONE stacked predict call (``n_samples * 2 * dim`` rows) so the
    batched engine amortizes the forward pass.  The sample stream is
    seeded internally — never from the BO loop's generator — so calling
    this does not perturb the proposal RNG stream and the estimate is a
    pure function of the surrogate state.  The proposer passes the
    objective's ``bank.predict_target`` for target 0.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(n_samples, dim))
    offsets = step * np.eye(dim)
    plus = np.clip(centers[:, None, :] + offsets[None, :, :], 0.0, 1.0)
    minus = np.clip(centers[:, None, :] - offsets[None, :, :], 0.0, 1.0)
    queries = np.concatenate(
        [plus.reshape(-1, dim), minus.reshape(-1, dim)], axis=0
    )
    mean, _ = predict(queries)
    mean = np.asarray(mean, dtype=float).ravel()
    half = n_samples * dim
    # actual per-coordinate spacing (clipping at the box edge shrinks it)
    axes = np.arange(dim)
    spacing = np.maximum((plus - minus)[:, axes, axes], 1e-12)
    grads = (mean[:half] - mean[half:]).reshape(n_samples, dim) / spacing
    grad_norms = np.linalg.norm(grads, axis=1)
    grad_norms = grad_norms[np.isfinite(grad_norms)]
    if grad_norms.size == 0:
        return _MIN_LIPSCHITZ
    return float(max(np.max(grad_norms), _MIN_LIPSCHITZ))


class LocalPenalizer:
    """Multiplicative penalties around pending points (Gonzalez et al. 2016).

    For each pending design ``x_j`` with clean-posterior moments
    ``(mu_j, sigma_j)`` and incumbent minimum ``best``, the exclusion ball
    has radius ``(f(x_j) - best) / lipschitz`` under an ``L``-Lipschitz
    objective; the penalty is the Gaussian probability that ``x`` lies
    outside it::

        phi(x; x_j) = Phi((L * ||x - x_j|| - (mu_j - best)) / sigma_j)

    Values are in ``(0, 1]`` per pending point; :meth:`__call__` returns
    the product (or the log-sum via :meth:`log_penalty`).

    Parameters
    ----------
    pending:
        Sequence of unit-box designs currently in flight.
    means, variances:
        Clean-posterior objective moments at the pending points (one value
        each per pending design).
    best:
        Best (minimum) objective observed so far; non-finite values fall
        back to the smallest pending mean (pure feasibility search).
    lipschitz:
        Lipschitz estimate of the objective posterior mean (see
        :func:`estimate_lipschitz`); floored at a tiny positive value.
    """

    def __init__(self, pending, means, variances, best: float, lipschitz: float):
        self.pending = np.atleast_2d(np.asarray(pending, dtype=float))
        means = np.asarray(means, dtype=float).ravel()
        variances = np.asarray(variances, dtype=float).ravel()
        if means.shape[0] != self.pending.shape[0]:
            raise ValueError(
                f"expected {self.pending.shape[0]} pending means, got {means.shape[0]}"
            )
        if variances.shape != means.shape:
            raise ValueError(
                f"means and variances must align, got shapes "
                f"{means.shape} vs {variances.shape}"
            )
        self.means = means
        self.sigmas = np.sqrt(np.maximum(variances, _MIN_SIGMA**2))
        if not np.isfinite(best):
            finite = means[np.isfinite(means)]
            best = float(np.min(finite)) if finite.size else 0.0
        self.best = float(best)
        self.lipschitz = float(max(lipschitz, _MIN_LIPSCHITZ))

    @property
    def n_pending(self) -> int:
        """Number of pending points being penalized."""
        return self.pending.shape[0]

    def _z(self, x: np.ndarray) -> np.ndarray:
        """Standardized ball-boundary distances, shape ``(n, n_pending)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        dists = np.linalg.norm(x[:, None, :] - self.pending[None, :, :], axis=2)
        radius = (self.means - self.best)[None, :]
        return (self.lipschitz * dists - radius) / self.sigmas[None, :]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Product of per-pending penalties, shape ``(n,)``, in ``(0, 1]``."""
        from scipy.special import ndtr

        return np.prod(ndtr(self._z(x)), axis=1)

    def log_penalty(self, x: np.ndarray) -> np.ndarray:
        """Sum of per-pending log-penalties (log-space acquisition path)."""
        from scipy.special import log_ndtr

        return np.sum(log_ndtr(self._z(x)), axis=1)

    def __repr__(self) -> str:
        return (
            f"LocalPenalizer(n_pending={self.n_pending}, "
            f"L={self.lipschitz:.3g}, best={self.best:.4g})"
        )


class PenalizedAcquisition:
    """A base acquisition multiplied by a :class:`LocalPenalizer`.

    ``log_space=True`` treats the base value as a log-acquisition (the
    :class:`~repro.acquisition.wei.WeightedExpectedImprovement` log path)
    and *adds* the log-penalty — the same monotone transform, so the argmax
    geometry matches the plain-space product exactly.
    """

    def __init__(self, base, penalizer: LocalPenalizer, log_space: bool = False):
        self.base = base
        self.penalizer = penalizer
        self.log_space = bool(log_space)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        value = np.asarray(self.base(x), dtype=float)
        if self.log_space:
            return value + self.penalizer.log_penalty(x)
        return value * self.penalizer(x)

    def __repr__(self) -> str:
        return f"PenalizedAcquisition({self.base!r}, {self.penalizer!r})"


class HallucinatedUCB(WeightedExpectedImprovement):
    """Optimistic-improvement acquisition over a hallucinated posterior.

    The GP-BUCB criterion adapted to the constrained minimization setting:
    with the pending set conditioned at its posterior means (variance
    shrinks near in-flight designs, the mean surface is untouched), the
    next pick maximizes::

        max(tau - (mu(x) - kappa * sigma(x)), 0) * prod_i PF_i(x)

    — the optimistic improvement of the lower confidence bound over the
    incumbent ``tau``, weighted by the probability of feasibility.  The
    whole PF-product machinery (plain and log-space, and the
    no-incumbent degeneration to the pure feasibility product) is
    inherited from :class:`~repro.acquisition.wei.
    WeightedExpectedImprovement`; only the improvement factor differs.
    ``kappa`` is GP-BUCB's confidence multiplier: larger values inflate
    the variance term, spreading concurrent picks further apart.
    """

    def __init__(
        self,
        bank,
        tau: float | None,
        kappa: float = 2.0,
        log_space: bool = False,
    ):
        if kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {kappa}")
        super().__init__(bank, tau, log_space=log_space)
        self.kappa = float(kappa)

    def _improvement(self, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
        sigma = np.sqrt(np.maximum(var, _MIN_SIGMA**2))
        return np.maximum(self.tau - (mean - self.kappa * sigma), 0.0)

    def __repr__(self) -> str:
        phase = "feasibility-search" if self.tau is None else f"tau={self.tau:.4g}"
        return (
            f"HallucinatedUCB({phase}, kappa={self.kappa}, "
            f"n_constraints={self.bank.n_targets - 1})"
        )


def validate_pending_strategy(strategy: str, acquisition: str) -> str:
    """Check a ``pending_strategy`` spec against the acquisition family.

    ``"penalize"`` and ``"hallucinate"`` reshape the wEI surface around the
    pending set; Thompson sampling diversifies by drawing posterior
    functions and has no lie to replace, so only ``"fantasy"`` composes
    with it.
    """
    if strategy not in PENDING_STRATEGIES:
        raise ValueError(
            f"pending_strategy must be one of {PENDING_STRATEGIES}, got {strategy!r}"
        )
    if strategy != "fantasy" and acquisition != "wei":
        raise ValueError(
            f"pending_strategy={strategy!r} requires acquisition='wei' "
            f"(got {acquisition!r}); Thompson batches diversify by posterior "
            "sampling and keep pending_strategy='fantasy'"
        )
    return strategy


__all__ = [
    "HallucinatedUCB",
    "LocalPenalizer",
    "PENDING_STRATEGIES",
    "PenalizedAcquisition",
    "estimate_lipschitz",
    "validate_pending_strategy",
]
