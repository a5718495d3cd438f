"""Inner-loop maximizers for acquisition functions (the Fig. 2 "optimize
engine").

The acquisition surface of an NN-feature GP is piecewise-smooth and highly
multi-modal, so the default engine is a small differential-evolution search
over the unit box followed by a Nelder-Mead polish of the champion — a
derivative-free combination that treats ours and the WEIBO baseline
identically (the surrogate is the only difference between the algorithms,
as in the paper's comparison).

Two engines share the one :func:`polish`:
:class:`DifferentialEvolutionMaximizer` (the default) and
:class:`ScanPolishMaximizer`, a best-of-N uniform scan that is plain
random search with ``polish=False`` and the trust-region space's engine
with it.  The proposal spaces of :mod:`repro.acquisition.spaces` are
maximizers too.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize as sopt

from repro.utils.rng import ensure_rng


#: hard ceiling on the Nelder-Mead polish budget — ``100 * dim`` iterations
#: is fine at circuit dimensions (d=36 → 3600) but explodes at d=200+;
#: the cap only binds above d=50, so existing pinned traces are unchanged.
POLISH_MAXITER_CAP = 5000


def _masked_values(values) -> np.ndarray:
    """Acquisition values with non-finite entries demoted to ``-inf``.

    Surrogate pathologies (overflowing variances, degenerate posteriors)
    can return NaN on part of a candidate batch.  NaN compares false
    against everything, but ``np.argmax`` *returns* a NaN champion and a
    NaN DE fitness permanently occupies its population slot (no trial ever
    beats it) — so every comparison site masks first: a candidate with no
    finite value can never win.
    """
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, -np.inf)


def evaluate_chunked(acquisition, candidates: np.ndarray,
                     chunk: int | None = None) -> np.ndarray:
    """Masked acquisition values of ``candidates``, optionally chunked.

    A large candidate scan pushed through a stacked GP posterior in one
    call allocates ``O(n * n_train * members)`` intermediates; chunking
    bounds the peak.  ``chunk=None`` evaluates in one batch.  BLAS
    reductions are not guaranteed bitwise across batch shapes, so a chunk
    smaller than the scan can move a pinned trace.
    """
    candidates = np.asarray(candidates, dtype=float)
    if chunk is None or len(candidates) <= chunk:
        return _masked_values(acquisition(candidates))
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    parts = [
        _masked_values(acquisition(candidates[start:start + chunk]))
        for start in range(0, len(candidates), chunk)
    ]
    return np.concatenate(parts)


class AcquisitionMaximizer:
    """Interface: maximize a batch-callable acquisition over the unit box."""

    def maximize(self, acquisition, dim: int, rng=None) -> np.ndarray:
        """Return the argmax point, shape ``(dim,)``, inside ``[0, 1]^dim``."""
        raise NotImplementedError

    def maximize_batch(
        self, acquisition_factory, q: int, dim: int, rng=None, postprocess=None
    ) -> list[np.ndarray]:
        """Greedy q-point maximization: q sequential inner maximizations.

        ``acquisition_factory(j, picks)`` builds the stage-``j`` acquisition
        given the picks chosen so far — the hook where fantasy updates
        (constant liar, Kriging believer, fresh Thompson draws) make the
        batch diverse instead of q copies of the argmax.  ``postprocess
        (pick, picks)`` optionally adjusts each pick before it is committed
        (e.g. duplicate resampling).  With ``q=1`` this reduces exactly to
        one :meth:`maximize` call, preserving the single-point RNG stream.
        """
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        picks: list[np.ndarray] = []
        for j in range(q):
            acquisition = acquisition_factory(j, picks)
            pick = self.maximize(acquisition, dim, rng)
            if postprocess is not None:
                pick = postprocess(pick, picks)
            picks.append(pick)
        return picks


def polish(acquisition, x0: np.ndarray, f0: float, maxiter: int) -> np.ndarray:
    """Nelder-Mead from the champion ``x0`` (acquisition value ``f0``).

    Probes are clipped to the unit box and sent one row at a time.  The
    polished point replaces ``x0`` only when its value is finite and at
    least ``f0``.
    """

    def negative(x):
        x = np.clip(x, 0.0, 1.0)
        value = float(_masked_values(acquisition(x.reshape(1, -1)))[0])
        # a NaN/-inf probe must read as "worst possible", not poison
        # Nelder-Mead's simplex comparisons with NaN ordering
        return -value if np.isfinite(value) else np.inf

    res = sopt.minimize(
        negative,
        x0,
        method="Nelder-Mead",
        options={"maxiter": int(maxiter), "xatol": 1e-4, "fatol": 1e-10},
    )
    if np.isfinite(res.fun) and -res.fun >= f0:
        return np.clip(res.x, 0.0, 1.0)
    return x0


class DifferentialEvolutionMaximizer(AcquisitionMaximizer):
    """DE/rand/1/bin over the unit box with an optional local polish.

    Population evaluations are batched through the acquisition callable, so
    each generation costs one surrogate prediction pass.

    Parameters
    ----------
    pop_size:
        Population size (scaled up to at least ``4 * dim`` internally when
        the dimension is large, capped at ``max_pop``).
    generations:
        Number of DE generations.
    mutation, crossover:
        Standard DE control parameters F and CR.
    polish:
        Run :func:`polish` from the DE champion at the end.
    max_pop:
        Ceiling on the effective population.  ``None`` (the default) is
        dim-aware — ``max(120, 4 * dim)`` — so the documented ``4 * dim``
        rule actually holds at every dimension instead of silently
        collapsing to 120 members for d>30, while d<=30 keeps the exact
        historical population (bitwise-pinned traces depend on it).
    polish_maxiter:
        Nelder-Mead iteration budget.  ``None`` uses the historical
        ``100 * dim`` capped at :data:`POLISH_MAXITER_CAP` (the cap only
        binds above d=50).
    """

    def __init__(
        self,
        pop_size: int = 40,
        generations: int = 40,
        mutation: float = 0.6,
        crossover: float = 0.9,
        polish: bool = True,
        max_pop: int | None = None,
        polish_maxiter: int | None = None,
    ):
        if pop_size < 5:
            raise ValueError(f"pop_size must be >= 5, got {pop_size}")
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        if not 0.0 < mutation <= 2.0:
            raise ValueError(f"mutation must be in (0, 2], got {mutation}")
        if not 0.0 < crossover <= 1.0:
            raise ValueError(f"crossover must be in (0, 1], got {crossover}")
        if max_pop is not None and max_pop < 5:
            raise ValueError(f"max_pop must be >= 5, got {max_pop}")
        if polish_maxiter is not None and polish_maxiter < 1:
            raise ValueError(f"polish_maxiter must be >= 1, got {polish_maxiter}")
        self.pop_size = int(pop_size)
        self.generations = int(generations)
        self.mutation = float(mutation)
        self.crossover = float(crossover)
        self.polish = bool(polish)
        self.max_pop = None if max_pop is None else int(max_pop)
        self.polish_maxiter = None if polish_maxiter is None else int(polish_maxiter)

    def population_size(self, dim: int) -> int:
        """Effective population at ``dim``: ``min(max(pop_size, 4*dim), cap)``."""
        cap = self.max_pop if self.max_pop is not None else max(120, 4 * dim)
        return min(max(self.pop_size, 4 * dim), cap)

    def resolve_polish_maxiter(self, dim: int) -> int:
        """Nelder-Mead budget at ``dim`` (``100 * dim`` capped by default)."""
        if self.polish_maxiter is not None:
            return self.polish_maxiter
        return min(100 * dim, POLISH_MAXITER_CAP)

    def maximize(self, acquisition, dim: int, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        n_pop = self.population_size(dim)
        pop = rng.uniform(0.0, 1.0, size=(n_pop, dim))
        fitness = _masked_values(acquisition(pop))
        for _ in range(self.generations):
            trial = self._make_trials(pop, rng)
            trial_fitness = _masked_values(acquisition(trial))
            improved = trial_fitness > fitness
            pop[improved] = trial[improved]
            fitness[improved] = trial_fitness[improved]
        best = pop[int(np.argmax(fitness))].copy()
        f0 = float(np.max(fitness))
        # a champion with no finite value (fully masked batch) has nothing
        # to polish — Nelder-Mead on an all-inf surface only spews NaNs
        if self.polish and np.isfinite(f0):
            best = polish(acquisition, best, f0, self.resolve_polish_maxiter(dim))
        return best

    def _make_trials(self, pop: np.ndarray, rng) -> np.ndarray:
        n_pop, dim = pop.shape
        idx = np.arange(n_pop)
        r1 = rng.integers(0, n_pop, size=n_pop)
        r2 = rng.integers(0, n_pop, size=n_pop)
        r3 = rng.integers(0, n_pop, size=n_pop)
        # re-draw indices that collide with the target (cheap and adequate
        # for the small populations used here)
        for r in (r1, r2, r3):
            clash = r == idx
            r[clash] = (r[clash] + 1 + rng.integers(0, n_pop - 1)) % n_pop
        mutant = pop[r1] + self.mutation * (pop[r2] - pop[r3])
        mutant = np.clip(mutant, 0.0, 1.0)
        cross = rng.uniform(size=(n_pop, dim)) < self.crossover
        # guarantee at least one mutated coordinate per individual
        forced = rng.integers(0, dim, size=n_pop)
        cross[idx, forced] = True
        return np.where(cross, mutant, pop)


class ScanPolishMaximizer(AcquisitionMaximizer):
    """Best-of-N uniform candidate scan plus an optional capped polish.

    ``n_samples`` uniform candidates are evaluated in chunked batches and
    the champion gets a :func:`polish` of at most ``polish_maxiter``
    iterations.  With ``polish=False`` it is plain random search (the
    cheap baseline engine); with the polish it is the engine of the
    trust-region proposal space.  Cost per proposal is ``O(n_samples)``
    surrogate evaluations regardless of dimension — no ``4 * dim``
    population, no ``100 * dim`` polish budget.
    """

    def __init__(
        self,
        n_samples: int = 2048,
        polish: bool = True,
        polish_maxiter: int = 200,
        eval_chunk: int | None = 4096,
    ):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if polish_maxiter < 1:
            raise ValueError(f"polish_maxiter must be >= 1, got {polish_maxiter}")
        if eval_chunk is not None and eval_chunk < 1:
            raise ValueError(f"eval_chunk must be >= 1, got {eval_chunk}")
        self.n_samples = int(n_samples)
        self.polish = bool(polish)
        self.polish_maxiter = int(polish_maxiter)
        self.eval_chunk = None if eval_chunk is None else int(eval_chunk)

    def maximize(self, acquisition, dim: int, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        candidates = rng.uniform(0.0, 1.0, size=(self.n_samples, dim))
        values = evaluate_chunked(acquisition, candidates, self.eval_chunk)
        best = candidates[int(np.argmax(values))].copy()
        f0 = float(np.max(values))
        if self.polish and np.isfinite(f0):
            best = polish(acquisition, best, f0, self.polish_maxiter)
        return best
