"""Thompson-sampling acquisition over the NN-GP's weight-space posterior.

An *extension* beyond the paper: because the paper's surrogate is a
Bayesian linear model over learned features (eq. 8), an exact posterior
function sample is just one draw ``w ~ N(A^{-1} Phi y, sigma_n^2 A^{-1})``
followed by ``f_s(x) = phi(x)^T w`` — O(M) per query, independent of the
number of observations.  Classic GPs need O(N) per query plus an O(N^3)
factorization for joint samples, so cheap Thompson sampling is a concrete
payoff of the weight-space view worth demonstrating.

Constrained handling: sample one function per constraint model as well and
minimize the sampled objective over the sampled-feasible region; points
whose sampled constraints are violated are ranked by violation (so the
proposer degenerates to feasibility search when nothing is feasible,
mirroring the wEI behaviour).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


class BankThompsonAcquisition:
    """One constrained Thompson draw through a stacked :class:`SurrogateBank`.

    For every target (objective first, then each constraint) a member is
    chosen uniformly (the standard ensemble-Thompson scheme) and an exact
    weight-space posterior function is sampled from that member's slice
    (:meth:`~repro.core.batched_gp.BatchedNeuralFeatureGP.sample_slice_weights`).
    Maximizing this callable implements "minimize the sampled objective
    subject to the sampled constraints": the value is ``-f_s(x)`` where
    all sampled constraints are satisfied and ``-(violation + offset)``
    (always worse) elsewhere.  One stacked forward pass serves all targets
    per evaluation, so a q-point Thompson batch costs q acquisition
    maximizations over the same batched predict path the wEI loop uses.

    Build a fresh instance per draw: one object is one sampled function
    per target.
    """

    _INFEASIBLE_OFFSET = 1e6

    def __init__(self, bank, rng=None):
        rng = ensure_rng(rng)
        self.bank = bank
        gp = bank.gp
        self._slices: list[int] = []
        self._weights: list[np.ndarray] = []
        for t in range(bank.n_targets):
            k = int(rng.integers(bank.n_members))
            s = t * bank.n_members + k
            self._slices.append(s)
            self._weights.append(gp.sample_slice_weights(s, rng=rng))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        gp = self.bank.gp
        feats = gp.features(x)
        values = [
            (feats[s] @ w) * float(gp._y_scale[s]) + float(gp._y_mean[s])
            for s, w in zip(self._slices, self._weights)
        ]
        objective = values[0]
        if len(values) == 1:
            return -objective
        violation = np.zeros(x.shape[0])
        for sampled_g in values[1:]:
            violation += np.maximum(sampled_g, 0.0)
        feasible = violation <= 0.0
        return np.where(
            feasible, -objective, -(self._INFEASIBLE_OFFSET + violation)
        )

