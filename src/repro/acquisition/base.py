"""Closed-form acquisition primitives on Gaussian predictive distributions.

All functions take predictive mean/variance arrays (as returned by the
surrogates) and are vectorized over query points.  Minimization convention
throughout, matching the paper's problem statement (eq. 1).
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
