"""Weighted Expected Improvement for constrained problems (paper eq. 7).

``wEI(x) = EI(x) * prod_i PF_i(x)`` favours regions that both improve the
objective and are likely to satisfy every constraint.  Until a feasible
point has been observed the incumbent ``tau`` is undefined; following the
WEIBO reference (Lyu et al. 2018 / Gelbart et al. 2014) the acquisition
then degenerates to the pure feasibility product ``prod_i PF_i(x)``.
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.base import expected_improvement, probability_of_feasibility

#: floor under each factor before its log (log-space evaluation)
_TINY = 1e-300


class WeightedExpectedImprovement:
    """Callable acquisition over a fitted surrogate bank.

    Each call reads the targets it needs in one
    ``bank.predict_target(range, x)`` call: the objective (target 0) only
    once an incumbent exists, then every constraint.  On the NN-GP bank
    that is one inference pass, and during feasibility search it skips
    the objective's slices altogether.

    Parameters
    ----------
    bank:
        The fitted surrogates behind the bank surface (a
        :class:`~repro.core.batched_gp.SurrogateBank` or a
        :class:`~repro.acquisition.fantasy.PerTargetBank`): target 0 is
        the objective, targets ``1..T-1`` the constraints ``g_i(x) < 0``
        (none for unconstrained problems, where wEI reduces to plain EI).
    tau:
        Best *feasible* objective observed so far, or ``None`` if no
        feasible point exists yet.
    log_space:
        Evaluate the product in log space.  With dozens of constraints the
        plain product underflows to an exact 0.0 over most of the space,
        flattening the acquisition; summing log-probabilities keeps the
        ranking information.  The returned value is then a monotone
        transform ``log wEI``, which leaves the argmax unchanged.
    """

    def __init__(self, bank, tau: float | None, log_space: bool = False):
        self.bank = bank
        self.tau = tau
        self.log_space = bool(log_space)
        self._improves = tau is not None
        self._targets = range(0 if self._improves else 1, bank.n_targets)

    def _improvement(self, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
        """The objective-improvement factor; the hook subclasses override.

        :class:`~repro.acquisition.penalization.HallucinatedUCB` swaps EI
        for the optimistic confidence bound here while inheriting the
        whole feasibility-product (plain and log-space) machinery.
        """
        return expected_improvement(mean, var, self.tau)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the acquisition on a batch of points, shape ``(n, d)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self._targets:
            mean, var = self.bank.predict_target(self._targets, x)
        else:  # no incumbent and no constraints: the empty product
            mean = var = np.empty((0, len(x)))
        if self._improves:
            factors = np.empty_like(mean)
            factors[0] = self._improvement(mean[0], var[0])
            factors[1:] = probability_of_feasibility(mean[1:], var[1:])
        else:
            factors = probability_of_feasibility(mean, var)
        # reduced along the factor axis in eq. 7's order, objective first:
        # the same additions or products as one factor at a time
        if self.log_space:
            return np.add.reduce(np.log(np.maximum(factors, _TINY)), axis=0)
        return np.multiply.reduce(factors, axis=0)

    def __repr__(self) -> str:
        phase = "feasibility-search" if self.tau is None else f"tau={self.tau:.4g}"
        return (
            f"WeightedExpectedImprovement({phase}, "
            f"n_constraints={self.bank.n_targets - 1})"
        )
