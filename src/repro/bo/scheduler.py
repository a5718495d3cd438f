"""Evaluation executors, the async provenance ledger and replay clock.

The single-point BO loop leaves any multi-core simulation budget idle:
one design is proposed, simulated, and only then is the next one chosen.
This module supplies the evaluation half of the q-point refactor — the
proposal half (q-aware acquisition with constant-liar/fantasy updates)
lives in :mod:`repro.bo.proposer` and :mod:`repro.acquisition`.

Three pluggable executors implement one protocol:
``submit(problem, u)`` returns a future of the design's
:class:`~repro.bo.problem.Evaluation` (holding the exception when the
simulation raises) and ``collect(problem, u, future)`` retrieves it:

* :class:`SerialEvaluator` — simulates in the calling thread, at
  submission; with ``q=1`` this reproduces the legacy loop bitwise.
* :class:`ThreadPoolEvaluator` — a thread pool sharing one problem
  instance (the memoization cache is lock-protected).  Suited to
  simulators that release the GIL or block on subprocess/IO.
* :class:`ProcessPoolEvaluator` — a process pool for CPU-bound Python
  simulators.  Each task carries a cache-stripped copy of its problem, so
  one pool serves any number of problems; workers simulate *uncached* and
  the parent ingests every result into its own cache
  (:meth:`repro.bo.problem.Problem.store_evaluation`), so hit/miss
  counters and the optional on-disk cache stay consistent.  A problem
  that cannot be pickled is simulated in the calling thread instead, with
  a warning.

The closed loop (:meth:`repro.bo.loop.SurrogateBO.run_study`) runs every
executor through a single-tenant evaluation farm (:mod:`repro.farm`).
By default it evaluates q-point batches behind a barrier: a batch is
submitted at once and told to the :class:`~repro.bo.study.Study` in
*batch order*, whichever worker finishes first.  Batch-order history is
what keeps runs deterministic across executors: the surrogate refit of
iteration ``i+1`` sees the same data matrix row order no matter which
worker finished first, so the same seed and the same ``q`` yield
identical proposal batches on every executor.

The ``"async-*"`` executor specs (the thread and process pools under
another name) opt the closed loop into the farm's refill-on-completion
loop instead: ``n_workers`` evaluations stay in flight, each landing is
committed immediately (completion order) and a replacement proposal —
conditioned on the still-pending set — is submitted the moment the
surrogate has absorbed it.  Async determinism is *conditional*: the
recorded trace is a pure function of ``(seed, completion order)``.
Every run carries a :class:`ProposalLedger` (``result.ledger``)
recording, per proposal, the pending set it was conditioned on and the
order in which proposals landed, so a trace can be audited or replayed.
A :class:`FakeClock` (virtual evaluation durations) makes the completion
order deterministic, under which async-thread and async-process runs are
bitwise identical.
"""

from __future__ import annotations

import copy
import os
import pickle
import warnings
import weakref
import zlib
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.bo.config import check_count
from repro.bo.problem import Evaluation, Problem


def _run_inline(fn, *args) -> Future:
    """Call ``fn(*args)`` in this thread; a resolved future of the outcome.

    An exception is stored in the future, as a pool would store it, so an
    in-process evaluation fails at ``collect`` — where the farm and its
    drivers expect evaluation errors — and never inside ``submit``.
    """
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


#: ceiling on the *default* pool size: simulation workloads saturate well
#: before the core counts of large hosts, and oversized default pools only
#: add fork/teardown latency.  Explicit ``n_workers`` is never capped.
MAX_DEFAULT_WORKERS = 8


def default_pool_workers() -> int:
    """Default worker count for pooled executors: the usable CPUs, capped.

    Usable means this process's CPU affinity where the platform reports
    it, so a cpuset or ``taskset`` limit does not oversubscribe the pools
    (``os.cpu_count()`` counts the whole host).
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(1, min(usable, MAX_DEFAULT_WORKERS))


class EvaluationExecutor:
    """Interface: simulate unit-box designs of a problem, one future each.

    ``submit(problem, u)`` returns a future resolving to the design's
    :class:`~repro.bo.problem.Evaluation`, or holding the exception the
    simulation raised; futures may complete in any order.
    ``collect(problem, u, future)`` blocks on one future and returns its
    evaluation, performing any parent-side cache bookkeeping exactly
    once.  ``close()`` releases worker resources and must be idempotent.
    """

    def submit(self, problem: Problem, u: np.ndarray) -> Future:
        """Dispatch one unit-box design; returns a future of its Evaluation."""
        raise NotImplementedError

    def collect(self, problem: Problem, u: np.ndarray, future: Future) -> Evaluation:
        """Block on one submitted future and return its evaluation."""
        return future.result()

    def close(self):
        """Release pooled workers (no-op by default)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialEvaluator(EvaluationExecutor):
    """Simulate each design in the calling thread when it is submitted."""

    def submit(self, problem: Problem, u: np.ndarray) -> Future:
        return _run_inline(problem.evaluate_unit, np.asarray(u, dtype=float))


class ThreadPoolEvaluator(EvaluationExecutor):
    """Evaluate designs concurrently on a shared thread pool.

    All threads call ``problem.evaluate_unit`` on the *same* problem
    instance; the problem's cache lock keeps the memoization bookkeeping
    consistent.  Python-level simulator code still contends for the GIL —
    use :class:`ProcessPoolEvaluator` for CPU-bound pure-Python simulators.
    """

    def __init__(self, n_workers: int | None = None):
        if n_workers is None:
            n_workers = default_pool_workers()
        self.n_workers = check_count("n_workers", n_workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def submit(self, problem: Problem, u: np.ndarray) -> Future:
        """Dispatch one design to the pool (memoization stays parent-side)."""
        return self._ensure_pool().submit(
            problem.evaluate_unit, np.asarray(u, dtype=float)
        )

    def close(self):
        """Shut the pool down; queued-but-unstarted work is cancelled.

        ``cancel_futures=True`` makes shutdown exception-safe: when a
        poisoned evaluation aborts a batch mid-flight, the not-yet-started
        tasks are dropped instead of being waited on, so closing never
        blocks on work nobody will consume.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def _worker_evaluate(problem: Problem, u: np.ndarray) -> Evaluation:
    """Simulate one design in a worker, bypassing the worker's cache copy.

    The parent process owns all caching: it checks its cache before
    dispatch and stores worker results afterwards, so worker-side caches
    would only drift (and double-write any on-disk store).
    """
    return problem.evaluate_unit_uncached(u)


class ProcessPoolEvaluator(EvaluationExecutor):
    """Evaluate designs on a process pool (true CPU parallelism).

    Every task carries a cache-stripped copy of its problem, so one pool
    serves any number of problems — a farm's tenants — without respawning
    workers.  A problem that cannot be pickled is simulated in the calling
    thread instead, with one warning per problem.  Cache behaviour is
    parent-owned (see :func:`_worker_evaluate`): already-cached designs
    are answered without dispatch, and fresh simulations are ingested with
    :meth:`~repro.bo.problem.Problem.store_evaluation`.
    """

    def __init__(self, n_workers: int | None = None):
        if n_workers is None:
            n_workers = default_pool_workers()
        self.n_workers = check_count("n_workers", n_workers)
        self._pool: ProcessPoolExecutor | None = None
        # per problem: whether it pickles (checked once, warned once)
        self._picklable = weakref.WeakKeyDictionary()
        # futures whose results still need ingesting into the parent cache
        # (dispatched to workers; cached/in-process futures are excluded)
        self._needs_store: set[Future] = set()

    def _shippable(self, problem: Problem) -> Problem | None:
        """The copy of ``problem`` sent with a task; ``None`` if unpicklable."""
        # workers simulate uncached by design (the parent owns all
        # caching), so serializing a possibly-large warm memoization cache
        # with every task would be pure pickle/transfer waste
        shipped = copy.copy(problem)
        shipped._eval_cache = {}
        if problem not in self._picklable:
            try:
                pickle.dumps(shipped)
                self._picklable[problem] = True
            except Exception:
                warnings.warn(
                    f"problem {problem.name!r} is not picklable; "
                    "ProcessPoolEvaluator evaluates it in-process instead "
                    "(use module-level callables or a thread executor)",
                    stacklevel=3,
                )
                self._picklable[problem] = False
        return shipped if self._picklable[problem] else None

    def submit(self, problem: Problem, u: np.ndarray) -> Future:
        """Dispatch one design to a worker (cache answered parent-side).

        Already-cached designs and unpicklable problems are evaluated in
        the calling thread without touching the pool; fresh simulations
        are ingested into the parent cache by :meth:`collect` (exactly
        once per future).
        """
        u = np.asarray(u, dtype=float)
        shipped = self._shippable(problem)
        if shipped is None or problem.lookup_cached(u, count=False) is not None:
            return _run_inline(problem.evaluate_unit, u)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        future = self._pool.submit(_worker_evaluate, shipped, u)
        self._needs_store.add(future)
        return future

    def collect(self, problem: Problem, u: np.ndarray, future: Future) -> Evaluation:
        evaluation = future.result()
        if future in self._needs_store:
            self._needs_store.discard(future)
            problem.store_evaluation(u, evaluation)
        return evaluation

    def close(self):
        """Shut the pool down, cancelling queued work (see the thread pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._needs_store.clear()


_EXECUTORS = {
    "serial": SerialEvaluator,
    "thread": ThreadPoolEvaluator,
    "process": ProcessPoolEvaluator,
    # the same pools; SchedulerConfig.is_async reads the spec to choose
    # the refill-on-completion loop over the batch barrier
    "async-thread": ThreadPoolEvaluator,
    "async-process": ProcessPoolEvaluator,
}


def make_evaluator(spec, n_workers: int | None = None) -> EvaluationExecutor:
    """Resolve an executor spec (name or instance) to an executor.

    ``spec`` is ``"serial"``, ``"thread"``, ``"process"``,
    ``"async-thread"``, ``"async-process"`` or an
    :class:`EvaluationExecutor` instance (returned unchanged, in which case
    ``n_workers`` must be left unset).  The ``async-*`` specs build the
    thread and process pools; they differ only in the loop the closed
    loop runs (:attr:`~repro.bo.config.SchedulerConfig.is_async`).
    Pooled specs default their worker count to
    :func:`default_pool_workers`; the serial spec rejects an explicit
    ``n_workers`` instead of silently ignoring it — a caller writing
    ``make_evaluator("serial", n_workers=8)`` almost certainly meant a
    pooled executor.
    """
    if isinstance(spec, EvaluationExecutor):
        if n_workers is not None:
            raise ValueError(
                f"n_workers={n_workers} cannot override the executor "
                f"instance {spec!r}; size the instance at construction"
            )
        return spec
    try:
        cls = _EXECUTORS[str(spec).lower()]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; expected one of {sorted(_EXECUTORS)} "
            "or an EvaluationExecutor instance"
        ) from None
    if cls is SerialEvaluator:
        if n_workers is not None:
            raise ValueError(
                f"the serial executor evaluates in-process; n_workers="
                f"{n_workers} has no effect (use a 'thread'/'process'/"
                "'async-*' executor for pooled evaluation)"
            )
        return cls()
    return cls(n_workers=n_workers)


# -- asynchronous provenance and replay ---------------------------------------------


@dataclass
class ProposalEntry:
    """One proposal's provenance in the async ledger.

    ``pending_at_proposal`` holds the proposal ids that were in flight
    (submitted, not yet landed) when this design was proposed — the
    fantasy points its acquisition conditioned on.
    ``n_landed_at_submit`` is how many earlier proposals had already
    landed at submission time; ``committed_at`` is this proposal's own
    landing sequence number (1-based completion order, ``None`` while in
    flight) and ``record_index`` the history row it landed in — so for
    any pending id ``p``: ``entry(p).committed_at > n_landed_at_submit``.
    ``virtual_ready`` is the fake-clock completion time when a
    :class:`FakeClock` drives the run (``None`` in wall-clock mode).
    ``strategy`` records how the proposal's acquisition absorbed the
    pending set (``"fantasy"``, ``"penalize"`` or ``"hallucinate"`` — see
    :mod:`repro.acquisition.penalization`), so replays and audits know
    which coordination rule produced each design.  ``retracted`` marks a
    proposal abandoned via :meth:`~repro.bo.study.Study.retract` — it
    never landed and never will, but its provenance (what later proposals
    conditioned on) stays auditable.  ``speculative`` marks a proposal
    asked opportunistically by the evaluation farm (:mod:`repro.farm`) to
    fill otherwise-idle workers; a speculative proposal either commits
    like any demanded landing (promotion) or ends retracted
    (abandonment), and the flag survives both so audits can separate
    demanded from speculated work.
    """

    proposal_id: int
    u: tuple
    pending_at_proposal: tuple[int, ...]
    n_landed_at_submit: int
    virtual_ready: float | None = None
    committed_at: int | None = None
    record_index: int | None = None
    strategy: str = "fantasy"
    retracted: bool = False
    speculative: bool = False


class ProposalLedger:
    """Replayable record of an asynchronous run's proposal/commit order.

    The async trace is a pure function of ``(seed, completion order)``;
    the ledger captures the completion order — plus each proposal's
    pending-set provenance — so a run can be audited, compared across
    executors, or replayed: re-running with the same seed and a clock
    that reproduces ``completion_order`` yields the identical trace
    (pinned in ``tests/bo/test_async_scheduler.py``).
    """

    def __init__(self):
        self.entries: list[ProposalEntry] = []
        self._n_committed = 0

    def open(
        self,
        u: np.ndarray,
        pending: tuple[int, ...],
        virtual_ready: float | None = None,
        strategy: str = "fantasy",
        speculative: bool = False,
    ) -> ProposalEntry:
        """Register a new proposal; returns its entry (id = position)."""
        entry = ProposalEntry(
            proposal_id=len(self.entries),
            u=tuple(np.asarray(u, dtype=float).ravel().tolist()),
            pending_at_proposal=tuple(int(i) for i in pending),
            n_landed_at_submit=self._n_committed,
            virtual_ready=virtual_ready,
            strategy=str(strategy),
            speculative=bool(speculative),
        )
        self.entries.append(entry)
        return entry

    def commit(self, proposal_id: int, record_index: int) -> ProposalEntry:
        """Mark one proposal as landed (next completion sequence number)."""
        entry = self.entries[proposal_id]
        if entry.committed_at is not None:
            raise ValueError(f"proposal {proposal_id} committed twice")
        if entry.retracted:
            kind = "speculative " if entry.speculative else ""
            raise ValueError(
                f"{kind}proposal {proposal_id} "
                f"(strategy={entry.strategy!r}) was retracted and cannot "
                "commit; a retracted proposal never lands"
            )
        self._n_committed += 1
        entry.committed_at = self._n_committed
        entry.record_index = int(record_index)
        return entry

    def retract(self, proposal_id: int) -> ProposalEntry:
        """Mark one in-flight proposal as abandoned (never landing)."""
        entry = self.entries[proposal_id]
        if entry.committed_at is not None:
            raise ValueError(
                f"proposal {proposal_id} already committed and cannot be "
                "retracted"
            )
        if entry.retracted:
            raise ValueError(f"proposal {proposal_id} retracted twice")
        entry.retracted = True
        return entry

    def entry(self, proposal_id: int) -> ProposalEntry:
        """The ledger entry for one proposal id."""
        return self.entries[proposal_id]

    @property
    def completion_order(self) -> list[int]:
        """Proposal ids in the order they landed (in-flight ones omitted)."""
        committed = [e for e in self.entries if e.committed_at is not None]
        return [e.proposal_id for e in sorted(committed, key=lambda e: e.committed_at)]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"ProposalLedger({len(self.entries)} proposals, "
            f"{self._n_committed} committed)"
        )


class FakeClock:
    """Deterministic virtual evaluation durations for async replay.

    Real async runs commit in wall-clock completion order, which varies
    with machine load; under a fake clock the async driver instead assigns
    every submission a *virtual* duration — a pure function of the design
    point — and always commits the in-flight proposal with the earliest
    virtual completion time.  The pool still evaluates in parallel; only
    the commit order is virtualized.  Same seed + same clock ⇒ the same
    completion order on every executor, making async-thread and
    async-process runs bitwise comparable (the pinned determinism test).

    ``duration_fn(u) -> float`` overrides the default, which hashes the
    rounded unit coordinates (CRC32 — stable across processes and runs)
    into ``base + spread * frac``.
    """

    def __init__(self, base: float = 1.0, spread: float = 1.0, duration_fn=None):
        if base < 0 or spread < 0:
            raise ValueError(
                f"base and spread must be non-negative, got base={base}, "
                f"spread={spread}"
            )
        self.base = float(base)
        self.spread = float(spread)
        self.duration_fn = duration_fn

    def duration(self, u: np.ndarray) -> float:
        """Virtual evaluation time of one unit-box design."""
        if self.duration_fn is not None:
            return float(self.duration_fn(u))
        payload = np.ascontiguousarray(
            np.round(np.asarray(u, dtype=float), 12)
        ).tobytes()
        frac = (zlib.crc32(payload) & 0xFFFFFFFF) / float(0xFFFFFFFF)
        return self.base + self.spread * frac
