"""Fantasy (constant-liar / Kriging-believer) updates for q-point proposals.

Greedy q-point acquisition picks candidates one at a time; between picks the
surrogates must pretend the pending candidates have already been evaluated,
otherwise every pick lands on the same argmax.  The pretend value is the
*lie*:

* ``"believer"`` — the model's own posterior mean at the pending point
  (Kriging believer); also used for every constraint model regardless of
  strategy, since constraint means are the natural feasibility stand-in.
* ``"cl-min"`` / ``"cl-max"`` — the best / worst objective value observed
  so far (classic constant liar; ``cl-min`` is optimistic and explores
  harder, ``cl-max`` is pessimistic and packs picks tighter).

Every surrogate answers one bank surface: ``fit(x, targets)``,
``predict_target(t or range, x)``, ``fantasize(u, lies)`` and
``reset_fantasies()``.  The batched :class:`~repro.core.batched_gp.
SurrogateBank` conditions on a lie with a cheap posterior-only rank
update.  :class:`PerTargetBank` puts per-target surrogates (e.g. the WEIBO
GP baseline) behind the same surface and refits each model on the
augmented dataset, the textbook constant-liar procedure.
"""

from __future__ import annotations

import numpy as np

FANTASY_STRATEGIES = ("believer", "cl-min", "cl-max")


def _constant_lie(observed: np.ndarray, strategy: str) -> float | None:
    """The constant-liar value, or ``None`` where the lie is the believer's.

    Constant-liar strategies take the extremum over the *finite* observed
    objectives only: a single NaN/inf from a failed simulation would
    otherwise poison every subsequent ``cl-min``/``cl-max`` lie (NaN wins
    both ``np.min`` and ``np.max``) and, through the fantasy update, the
    surrogate fit itself.  With no finite observation at all the lie falls
    back to the believer (posterior-mean) value, which is always finite.
    """
    if strategy not in FANTASY_STRATEGIES:
        raise ValueError(
            f"fantasy strategy must be one of {FANTASY_STRATEGIES}, got {strategy!r}"
        )
    observed = np.asarray(observed, dtype=float)
    finite = observed[np.isfinite(observed)] if observed.size else observed
    if strategy == "cl-min" and finite.size:
        return float(np.min(finite))
    if strategy == "cl-max" and finite.size:
        return float(np.max(finite))
    return None


def fantasy_lies(bank, u: np.ndarray, observed: np.ndarray, strategy: str) -> np.ndarray:
    """The ``(n_targets,)`` lies for one pending point, from one read.

    Shared by the batch (q-point) and asynchronous proposers: the
    objective (target 0) lie follows ``strategy``, constraints always take
    believer (posterior-mean) lies.  Every posterior mean the lies need is
    read in one ``bank.predict_target`` call over a range of targets.
    """
    lie = _constant_lie(observed, strategy)
    first = 0 if lie is None else 1
    if first == bank.n_targets:  # a constant objective lie and no constraints
        return np.array([lie])
    u2 = np.atleast_2d(np.asarray(u, dtype=float))
    means = bank.predict_target(range(first, bank.n_targets), u2)[0][:, 0]
    return means if lie is None else np.concatenate([[lie], means])


class PerTargetBank:
    """T per-target surrogates behind the :class:`~repro.core.batched_gp.
    SurrogateBank` surface.

    ``factory(rng) -> model`` builds one surrogate with ``fit(x, y)`` and
    ``predict(x) -> (mean, var)``; :meth:`fit` calls it once per target,
    in target order, from ``rng`` (the study's stream, so the order is the
    trace).  :meth:`fantasize` conditions every model on a pending point
    by refitting it on the augmented dataset.  The models are throwaways
    of one fit, so conditioning mutates them in place.
    """

    def __init__(self, factory, rng, n_targets: int):
        self.factory = factory
        self.rng = rng
        self.n_targets = int(n_targets)
        self.models: list = []
        self._x_rows: list[np.ndarray] = []
        self._target_rows: list[np.ndarray] = []

    def fit(self, x: np.ndarray, targets: np.ndarray) -> "PerTargetBank":
        """Build and fit one fresh model per row of ``targets`` ``(T, N)``."""
        x = np.asarray(x, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (self.n_targets, len(x)):
            raise ValueError(
                f"expected targets shape ({self.n_targets}, {len(x)}), "
                f"got {targets.shape}"
            )
        self.models = []
        for y in targets:
            model = self.factory(self.rng)
            model.fit(x, y)
            self.models.append(model)
        self._x_rows = [x]
        self._target_rows = [targets]
        return self

    def fantasize(self, x_new: np.ndarray, lie_targets: np.ndarray) -> "PerTargetBank":
        """Refit every model on the data plus a lie of ``(T,)`` values at ``x_new``."""
        x_new = np.asarray(x_new, dtype=float).reshape(1, -1)
        if x_new.shape[1] != self._x_rows[0].shape[1]:
            raise ValueError(
                f"expected a {self._x_rows[0].shape[1]}-dim point, got {x_new.shape}"
            )
        lie_targets = np.asarray(lie_targets, dtype=float).ravel()
        if lie_targets.shape != (self.n_targets,):
            raise ValueError(
                f"expected ({self.n_targets},) lie targets, got {lie_targets.shape}"
            )
        self._x_rows.append(x_new)
        self._target_rows.append(lie_targets[:, None])
        x_aug = np.vstack(self._x_rows)
        for model, y in zip(self.models, np.concatenate(self._target_rows, axis=1)):
            model.fit(x_aug, y)
        return self

    @property
    def n_fantasies(self) -> int:
        """Pending points currently conditioning the models."""
        return len(self._x_rows) - 1

    def reset_fantasies(self) -> int:
        """Keep the fantasies; return how many carry into the next conditioning.

        Each cost a refit, and they are always the first pending designs:
        every landing, and every retract while they hold a lie, refits.
        """
        return self.n_fantasies

    def predict_target(self, target, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``models[target].predict(x)``, or stacked rows for a ``range``."""
        if not isinstance(target, range):
            return self.models[target].predict(x)
        moments = [self.models[t].predict(x) for t in target]
        return (
            np.stack([np.asarray(mean, dtype=float) for mean, _ in moments]),
            np.stack([np.asarray(var, dtype=float) for _, var in moments]),
        )
