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

Two conditioning paths exist.  The batched :class:`~repro.core.batched_gp.
SurrogateBank` exposes ``fantasize`` (a cheap posterior-only rank update
through the stacked engine).  For per-target surrogates (e.g. the WEIBO
GP baseline) this module provides :class:`FantasyModelSet`, which refits
each model on the augmented dataset — the textbook constant-liar
procedure.
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.base import ModelRows

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


def _believer_lies(models, u: np.ndarray) -> list[float]:
    """Posterior means of ``models`` at ``u``, read in one call."""
    u2 = np.atleast_2d(np.asarray(u, dtype=float))
    mean, _ = ModelRows(models).predict(u2)
    return [float(row[0]) for row in mean]


def objective_lie(
    objective_model, u: np.ndarray, observed: np.ndarray, strategy: str
) -> float:
    """The lie value recorded for the objective at pending point ``u``."""
    lie = _constant_lie(observed, strategy)
    return _believer_lies([objective_model], u)[0] if lie is None else lie


def fantasy_lies(
    objective_model, constraint_models, u: np.ndarray, observed: np.ndarray, strategy: str
) -> tuple[float, list[float]]:
    """Objective and constraint lies for one pending point, in one call.

    Shared by the batch (q-point) and asynchronous proposers: the
    objective lie follows ``strategy``, constraints always take believer
    (posterior-mean) lies.  Every posterior mean the lies need is read in
    one :class:`~repro.acquisition.base.ModelRows` call, so a bank's
    target views answer in one stacked pass.
    """
    lie = _constant_lie(observed, strategy)
    if lie is not None:
        return lie, constraint_lies(constraint_models, u)
    means = _believer_lies([objective_model, *constraint_models], u)
    return means[0], means[1:]


def constraint_lies(constraint_models, u: np.ndarray) -> list[float]:
    """Believer lies (posterior means) for every constraint at ``u``."""
    return _believer_lies(constraint_models, u)


class FantasyModelSet:
    """Per-target surrogates plus the training data their fantasies extend.

    Wraps the per-target (non-bank) fit of one BO iteration: the
    objective model, the constraint models, and the sanitized targets each
    was fitted on.  :meth:`add_fantasy` conditions every model on a
    pending point by refitting it on the augmented dataset.  Models are
    per-iteration throwaways, so conditioning mutates them in place.
    """

    def __init__(self, x, objective_model, objective_y, constraint_models, constraint_ys):
        self._x_rows = [np.asarray(x, dtype=float)]
        self.objective_model = objective_model
        self._objective_y = [np.asarray(objective_y, dtype=float)]
        self.constraint_models = list(constraint_models)
        self._constraint_ys = [
            [np.asarray(y, dtype=float)] for y in constraint_ys
        ]

    @property
    def n_fantasies(self) -> int:
        """Pending points currently conditioning the models."""
        return len(self._x_rows) - 1

    def add_fantasy(self, u: np.ndarray, obj_lie: float, cons_lies) -> None:
        """Condition all models on a fantasy observation of ``u``."""
        u = np.asarray(u, dtype=float).ravel()
        cons_lies = list(cons_lies)
        if len(cons_lies) != len(self.constraint_models):
            raise ValueError(
                f"expected {len(self.constraint_models)} constraint lies, "
                f"got {len(cons_lies)}"
            )
        self._x_rows.append(u[None, :])
        self._objective_y.append(np.array([float(obj_lie)]))
        for ys, lie in zip(self._constraint_ys, cons_lies):
            ys.append(np.array([float(lie)]))
        x_aug = np.vstack(self._x_rows)
        self.objective_model.fit(x_aug, np.concatenate(self._objective_y))
        for model, ys in zip(self.constraint_models, self._constraint_ys):
            model.fit(x_aug, np.concatenate(ys))
