"""Closed-form acquisition primitives on Gaussian predictive distributions.

All functions take predictive mean/variance arrays (as returned by the
surrogates) and are vectorized over query points.  Minimization convention
throughout, matching the paper's problem statement (eq. 1).
:class:`ModelRows` reads several surrogates at once, as the stacked rows
an acquisition feeds these primitives.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_MIN_SIGMA = 1e-12

# Standard-normal CDF/PDF via scipy.special rather than scipy.stats: the
# acquisition maximizer's polish phase evaluates these thousands of times on
# tiny arrays, where stats.norm's distribution machinery costs ~30 us per
# call against ~0.5 us for the direct special functions.  Values are bitwise
# identical (stats.norm delegates to ndtr / this exact pdf formula).
_norm_cdf = special.ndtr
_NORM_PDF_C = np.sqrt(2.0 * np.pi)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-(x**2) / 2.0) / _NORM_PDF_C


def _sigma(var: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(np.asarray(var, dtype=float), _MIN_SIGMA**2))


def expected_improvement(mean, var, tau: float) -> np.ndarray:
    """Expected improvement below the incumbent ``tau`` (paper eq. 5–6).

    ``EI(x) = sigma(x) * (lambda * CDF(lambda) + PDF(lambda))`` with
    ``lambda = (tau - mu(x)) / sigma(x)``.  Large when the predicted mean is
    low (exploitation) or the uncertainty is high (exploration).
    """
    mean = np.asarray(mean, dtype=float)
    sigma = _sigma(var)
    lam = (tau - mean) / sigma
    ei = sigma * (lam * _norm_cdf(lam) + _norm_pdf(lam))
    return np.maximum(ei, 0.0)


def probability_of_improvement(mean, var, tau: float) -> np.ndarray:
    """Probability that the objective at x is below the incumbent ``tau``."""
    mean = np.asarray(mean, dtype=float)
    sigma = _sigma(var)
    return _norm_cdf((tau - mean) / sigma)


def lower_confidence_bound(mean, var, kappa: float = 2.0) -> np.ndarray:
    """LCB ``mu - kappa * sigma`` (to be *minimized* for exploration).

    This is the minimization analogue of Auer's UCB criterion cited in
    Sec. II-B; GASPAD uses it for prescreening evolutionary offspring.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    return np.asarray(mean, dtype=float) - kappa * _sigma(var)


def upper_confidence_bound(mean, var, kappa: float = 2.0) -> np.ndarray:
    """UCB ``mu + kappa * sigma`` (for maximization problems)."""
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    return np.asarray(mean, dtype=float) + kappa * _sigma(var)


def probability_of_feasibility(mean, var) -> np.ndarray:
    """``PF(x) = P(g(x) < 0)`` for one constraint surrogate (paper eq. 7).

    Constraints follow the ``g(x) < 0`` convention of eq. 1, so feasibility
    probability is the Gaussian CDF mass below zero.  Elementwise, so rows
    of several constraints go through in one call.
    """
    mean = np.asarray(mean, dtype=float)
    sigma = _sigma(var)
    return _norm_cdf(-mean / sigma)


class ModelRows:
    """Several surrogates read at the same points, as stacked rows.

    :meth:`predict` returns ``(mean, var)`` of shape ``(len(models), n)``,
    row ``i`` holding ``models[i].predict(x)``.  When the models are the
    ``target_model(t)`` views of one
    :class:`~repro.core.batched_gp.SurrogateBank` for consecutive targets
    (how the proposer builds them), one stacked inference pass over
    exactly those targets' slices answers every row, bitwise equal to the
    per-model calls.  Any other surrogate (the GP baselines'
    ``GPRegression``, fantasy-refitted per-target models) is asked model
    by model.
    """

    def __init__(self, models):
        self.models = list(models)
        self._bank, self._targets = _bank_targets(self.models)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of means and variances at the 2-D batch ``x``."""
        if self._bank is not None:
            return self._bank.predict_target(self._targets, x)
        if not self.models:
            return np.empty((0, len(x))), np.empty((0, len(x)))
        moments = [model.predict(x) for model in self.models]
        return (
            np.stack([np.asarray(mean, dtype=float) for mean, _ in moments]),
            np.stack([np.asarray(var, dtype=float) for _, var in moments]),
        )


def _bank_targets(models) -> tuple[object, range | None]:
    """``(bank, targets)`` if ``models`` view consecutive targets of one bank."""
    views = [(getattr(model, "bank", None), getattr(model, "target", None)) for model in models]
    if not views or None in views[0]:
        return None, None
    bank, first = views[0]
    targets = range(first, first + len(views))
    if any(view[0] is not bank or view[1] != target for view, target in zip(views, targets)):
        return None, None
    return bank, targets
