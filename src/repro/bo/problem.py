"""Constrained optimization problem definitions (paper eq. 1).

Every sizing task is expressed as

    minimize f(x)   subject to   g_i(x) < 0,  i = 1..Nc,

over a box of design variables.  Maximization specs (e.g. the op-amp's
"maximize GAIN") are encoded by negating the objective at the testbench
level; constraint specs like ``UGF > 40 MHz`` become ``g = 40 MHz - UGF``
(normalized by the testbench so surrogate targets are O(1)).
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.utils.scaling import BoxScaler
from repro.utils.validation import check_vector_1d


@dataclass
class Evaluation:
    """Outcome of one (simulated) design evaluation.

    Attributes
    ----------
    objective:
        Figure of merit ``f(x)`` to minimize.
    constraints:
        Values ``g_i(x)``; the design is feasible iff all are ``< 0``.
    metrics:
        Raw named performances (GAIN in dB, UGF in Hz, ...) for reporting;
        not used by the optimizers.
    """

    objective: float
    constraints: np.ndarray
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.objective = float(self.objective)
        self.constraints = np.asarray(self.constraints, dtype=float).ravel()

    @property
    def feasible(self) -> bool:
        """True iff every constraint satisfies ``g_i(x) < 0``."""
        return bool(np.all(self.constraints < 0.0))

    @property
    def violation(self) -> float:
        """Total positive constraint violation (0 when feasible)."""
        return float(np.sum(np.maximum(self.constraints, 0.0)))


class Problem:
    """Base class for constrained minimization problems over a box.

    Subclasses implement :meth:`evaluate`; this class provides bound
    handling, the unit-box mapping every optimizer works in, and a
    memoization cache over :meth:`evaluate_unit` so repeated proposals
    never re-run the (deterministic) simulator.

    With ``cache_dir`` set, the memoization cache is additionally persisted
    to disk (one JSON-lines file per problem name), so expensive
    SPICE-level evaluations survive across processes and sessions: existing
    entries are loaded at construction and every fresh simulation is
    appended.  Cache lookups and stores are lock-protected, so the thread
    pool executor can share one problem instance.
    """

    #: unit-box coordinates are rounded to this many decimals for the cache
    #: key.  The 1e-12 resolution is three orders finer than the
    #: optimizers' default duplicate tolerance (1e-9), so any proposal the
    #: optimizer accepts as "new" maps to its own cache entry; only exact
    #: (or solver-noise-level) re-proposals hit the cache.  If you lower an
    #: optimizer's ``duplicate_tol`` below 1e-12, raise this accordingly —
    #: the cache resolution must stay finer than the duplicate tolerance
    #: or distinct accepted proposals could alias one entry.
    cache_decimals = 12

    #: set False (class- or instance-level) to disable memoization — e.g.
    #: for stochastic simulators, where caching would freeze the first
    #: noise realization of each design
    cache_evaluations = True

    def __init__(
        self, name: str, lower, upper, n_constraints: int, cache_dir=None
    ):
        if n_constraints < 0:
            raise ValueError(f"n_constraints must be >= 0, got {n_constraints}")
        self.name = str(name)
        self.scaler = BoxScaler(lower, upper)
        self.n_constraints = int(n_constraints)
        self._eval_cache: dict[tuple, Evaluation] = {}
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        self._cache_lock = threading.Lock()
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        if self.cache_dir is not None:
            self._load_disk_cache()

    # The lock cannot cross process boundaries; recreate it on unpickle so
    # problems stay shippable to process-pool evaluation workers.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    @property
    def dim(self) -> int:
        """Number of design variables d."""
        return self.scaler.dim

    @property
    def lower(self) -> np.ndarray:
        """Lower variable bounds."""
        return self.scaler.lower

    @property
    def upper(self) -> np.ndarray:
        """Upper variable bounds."""
        return self.scaler.upper

    def evaluate(self, x: np.ndarray) -> Evaluation:
        """Simulate one design point ``x`` (in natural units)."""
        raise NotImplementedError

    def cache_context(self) -> tuple:
        """Identity of the evaluation machinery, mixed into cache keys.

        Problems whose numbers depend on more than the design vector (for
        example which simulator backend ran, see
        :meth:`repro.sim.base.SimulatorBackend.cache_context`) override
        this; entries recorded under one context are never served — in
        memory or from disk — to a problem configured with another.  The
        default empty tuple keeps plain problems' keys and on-disk cache
        schema unchanged.
        """
        return ()

    def cache_key(self, u: np.ndarray) -> tuple:
        """Memoization key: evaluation context + rounded unit coordinates."""
        u = check_vector_1d(u, "u", length=self.dim)
        u_clipped = np.clip(u, 0.0, 1.0)
        coords = tuple(np.round(u_clipped, self.cache_decimals).tolist())
        return tuple(self.cache_context()) + coords

    def lookup_cached(self, u: np.ndarray, count: bool = True) -> Evaluation | None:
        """Return the memoized evaluation of ``u`` or ``None``.

        ``count=True`` (the default) increments the hit counter on success;
        a miss never increments the miss counter — only an actual
        simulation (:meth:`evaluate_unit` / :meth:`store_evaluation`) does.
        """
        if not self.cache_evaluations:
            return None
        with self._cache_lock:
            cached = self._eval_cache.get(self.cache_key(u))
            if cached is not None and count:
                self.n_cache_hits += 1
        return cached

    def store_evaluation(self, u: np.ndarray, evaluation: Evaluation) -> None:
        """Record a simulation performed elsewhere (e.g. a worker process).

        Counts as a cache miss — the simulator genuinely ran, just not in
        this process — and persists to the on-disk cache when configured.
        With memoization disabled the call is a no-op (no counters, no
        store), mirroring :meth:`evaluate_unit`, so the recorded cache
        statistics stay identical across executors.
        """
        if not self.cache_evaluations:
            return
        with self._cache_lock:
            self.n_cache_misses += 1
            key = self.cache_key(u)
            self._eval_cache[key] = evaluation
            self._append_disk_entry(key, evaluation)

    def evaluate_unit_uncached(self, u: np.ndarray) -> Evaluation:
        """Simulate unit-box coordinates directly, bypassing the cache.

        Used by process-pool evaluation workers: the parent process owns
        the cache (lookups before dispatch, :meth:`store_evaluation` after
        results land), so workers must not maintain divergent copies.
        """
        u = check_vector_1d(u, "u", length=self.dim)
        u_clipped = np.clip(u, 0.0, 1.0)
        return self.evaluate(self.scaler.inverse_transform(u_clipped))

    def evaluate_unit(self, u: np.ndarray) -> Evaluation:
        """Evaluate a point given in unit-box coordinates (memoized).

        Results are cached keyed on the rounded unit coordinates (see
        :attr:`cache_decimals`); :attr:`n_cache_hits` / misses count the
        lookups and :meth:`clear_evaluation_cache` resets the store.
        """
        u = check_vector_1d(u, "u", length=self.dim)
        u_clipped = np.clip(u, 0.0, 1.0)
        if not self.cache_evaluations:
            return self.evaluate(self.scaler.inverse_transform(u_clipped))
        key = self.cache_key(u)
        with self._cache_lock:
            cached = self._eval_cache.get(key)
            if cached is not None:
                self.n_cache_hits += 1
                return cached
        evaluation = self.evaluate(self.scaler.inverse_transform(u_clipped))
        with self._cache_lock:
            self.n_cache_misses += 1
            self._eval_cache[key] = evaluation
            self._append_disk_entry(key, evaluation)
        return evaluation

    @property
    def cache_stats(self) -> tuple[int, int]:
        """Lifetime ``(hits, misses)`` of the evaluation cache."""
        return self.n_cache_hits, self.n_cache_misses

    def clear_evaluation_cache(self):
        """Drop all memoized evaluations (counters and disk files are kept)."""
        with self._cache_lock:
            self._eval_cache.clear()

    # -- on-disk persistence -------------------------------------------------------

    @property
    def _disk_cache_path(self) -> str | None:
        if self.cache_dir is None:
            return None
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", self.name) or "problem"
        return os.path.join(self.cache_dir, f"{slug}.evals.jsonl")

    def _load_disk_cache(self):
        """Warm the in-memory cache from the JSON-lines store (if present).

        Entries recorded under a different :meth:`cache_context` (e.g. a
        different simulator backend or version) are skipped, not loaded
        under the current context.
        """
        path = self._disk_cache_path
        if path is None or not os.path.exists(path):
            return
        context = tuple(self.cache_context())
        for entry in self._read_disk_entries(path):
            try:
                coords = tuple(float(v) for v in entry["key"])
                entry_context = tuple(entry.get("context", ()))
                evaluation = Evaluation(
                    objective=entry["objective"],
                    constraints=np.asarray(entry["constraints"], dtype=float),
                    metrics=dict(entry.get("metrics", {})),
                )
            except (KeyError, TypeError, ValueError):
                continue  # tolerate a torn final line from a crashed run
            if len(coords) == self.dim and entry_context == context:
                self._eval_cache[context + coords] = evaluation

    @staticmethod
    def _read_disk_entries(path: str):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue

    def _append_disk_entry(self, key: tuple, evaluation: Evaluation):
        """Persist one simulation (caller holds the cache lock).

        ``key`` is a full cache key (context prefix + coordinates); the
        context is stored as its own field — and omitted entirely when
        empty, keeping the historical schema for context-free problems.
        """
        path = self._disk_cache_path
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        context = tuple(self.cache_context())
        entry = {
            "key": list(key[len(context):]),
            "objective": evaluation.objective,
            "constraints": evaluation.constraints.tolist(),
            "metrics": _json_safe(evaluation.metrics),
        }
        if context:
            entry["context"] = _json_safe(list(context))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, d={self.dim}, "
            f"Nc={self.n_constraints})"
        )


def _json_safe(value):
    """Best-effort conversion of metric payloads to JSON-serializable types.

    Simulator metrics are floats in practice; anything exotic is stringified
    rather than failing the cache write.
    """
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class FunctionProblem(Problem):
    """Problem built from plain Python callables.

    Parameters
    ----------
    objective:
        ``f(x) -> float`` to minimize.
    constraints:
        Sequence of ``g_i(x) -> float`` callables with the ``< 0`` feasible
        convention (may be empty).
    metrics:
        Optional ``(x, objective, constraints) -> dict`` hook to record
        named performances.
    cache_dir:
        Optional directory for the persistent on-disk evaluation cache.
    """

    def __init__(
        self,
        name: str,
        lower,
        upper,
        objective,
        constraints=(),
        metrics=None,
        cache_dir=None,
    ):
        super().__init__(
            name, lower, upper, n_constraints=len(constraints), cache_dir=cache_dir
        )
        self._objective = objective
        self._constraints = list(constraints)
        self._metrics = metrics

    def evaluate(self, x: np.ndarray) -> Evaluation:
        x = check_vector_1d(x, "x", length=self.dim)
        obj = float(self._objective(x))
        cons = np.array([float(g(x)) for g in self._constraints])
        metrics = {}
        if self._metrics is not None:
            metrics = dict(self._metrics(x, obj, cons))
        return Evaluation(objective=obj, constraints=cons, metrics=metrics)
