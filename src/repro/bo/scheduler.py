"""Evaluation executors, the synchronous batch scheduler, and async replay.

The single-point BO loop leaves any multi-core simulation budget idle:
one design is proposed, simulated, and only then is the next one chosen.
This module supplies the evaluation half of the q-point refactor — the
proposal half (q-aware acquisition with constant-liar/fantasy updates)
lives in :mod:`repro.bo.loop` and :mod:`repro.acquisition`.

Three pluggable executors implement the ``evaluate(problem, batch)``
protocol, yielding ``(batch_index, Evaluation)`` pairs *in completion
order*:

* :class:`SerialEvaluator` — in-process, in-order; with ``q=1`` this
  reproduces the legacy loop bitwise.
* :class:`ThreadPoolEvaluator` — a thread pool sharing one problem
  instance (the memoization cache is lock-protected).  Suited to
  simulators that release the GIL or block on subprocess/IO.
* :class:`ProcessPoolEvaluator` — a process pool for CPU-bound Python
  simulators.  The problem is shipped to each worker once (pool
  initializer); workers simulate *uncached* and the parent ingests every
  result into its own cache (:meth:`repro.bo.problem.Problem.
  store_evaluation`), so hit/miss counters and the optional on-disk cache
  stay consistent.  Falls back to serial with a warning when the problem
  cannot be pickled.

:class:`EvaluationScheduler` sits on top for synchronous q-point runs: it
dispatches one batch of study trials, ingests results as they land (an
``on_arrival`` hook fires in completion order), and tells them to the
:class:`~repro.bo.study.Study` in *batch order* through a reorder buffer.
Batch-order history is what keeps runs deterministic across executors:
the surrogate refit of iteration ``i+1`` sees the same data matrix row
order no matter which worker finished first, so the same seed and the
same ``q`` yield identical proposal batches on every executor.

The ``"async-*"`` executor specs opt the closed loop into the
refill-on-completion loop instead, run by the evaluation farm
(:mod:`repro.farm`): ``n_workers`` evaluations stay in flight, each
landing is committed immediately (completion order) and a replacement
proposal — conditioned on the still-pending set — is submitted the
moment the surrogate has absorbed it.  Async determinism is
*conditional*: the recorded trace is a pure function of ``(seed,
completion order)``.  Every run carries a :class:`ProposalLedger`
(``result.ledger``) recording, per proposal, the pending set it was
conditioned on and the order in which proposals landed, so a trace can be
audited or replayed.  A :class:`FakeClock` (virtual evaluation
durations) makes the completion order deterministic, under which
async-thread and async-process runs are bitwise identical.
"""

from __future__ import annotations

import copy
import os
import pickle
import warnings
import zlib
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass

import numpy as np

from repro.bo.config import check_count
from repro.bo.problem import Evaluation, Problem


def _completed_future(value) -> Future:
    """An already-resolved future (cached/serial results in async mode)."""
    future: Future = Future()
    future.set_result(value)
    return future


#: ceiling on the *default* pool size: simulation workloads saturate well
#: before the core counts of large hosts, and oversized default pools only
#: add fork/teardown latency.  Explicit ``n_workers`` is never capped.
MAX_DEFAULT_WORKERS = 8


def default_pool_workers() -> int:
    """Default worker count for pooled executors: ``os.cpu_count()``, capped."""
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


class EvaluationExecutor:
    """Interface: evaluate a batch of unit-box designs on a problem.

    Implementations yield ``(batch_index, evaluation)`` pairs in whatever
    order simulations complete; callers must not rely on ordering.
    ``close()`` releases worker resources and must be idempotent.

    Pooled executors additionally implement the *async protocol* used by
    the evaluation farm (:mod:`repro.farm`): ``submit(problem, u)``
    returns a future resolving to the :class:`~repro.bo.problem.Evaluation`,
    and ``collect(problem, u, future)`` retrieves the result (performing
    any parent-side cache bookkeeping exactly once).  ``async_mode`` marks
    the executor specs that opt the BO loop into the refill-on-completion
    loop instead of the batch barrier.
    """

    name = "abstract"
    #: True for the ``"async-*"`` executor specs: the BO loop runs the
    #: refill-on-completion scheduler instead of the q-point barrier.
    async_mode = False

    def evaluate(self, problem: Problem, batch):
        """Yield ``(batch_index, Evaluation)`` as results complete."""
        raise NotImplementedError

    def submit(self, problem: Problem, u: np.ndarray) -> Future:
        """Dispatch one unit-box design; returns a future of its Evaluation."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support asynchronous submission"
        )

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
    """Evaluate the batch one by one in the calling process."""

    name = "serial"

    def evaluate(self, problem: Problem, batch):
        for batch_index, u in enumerate(batch):
            yield batch_index, problem.evaluate_unit(u)


class ThreadPoolEvaluator(EvaluationExecutor):
    """Evaluate batch candidates concurrently on a shared thread pool.

    All threads call ``problem.evaluate_unit`` on the *same* problem
    instance; the problem's cache lock keeps the memoization bookkeeping
    consistent.  Python-level simulator code still contends for the GIL —
    use :class:`ProcessPoolEvaluator` for CPU-bound pure-Python simulators.
    """

    name = "thread"

    def __init__(self, n_workers: int | None = None):
        if n_workers is None:
            n_workers = default_pool_workers()
        self.n_workers = check_count("n_workers", n_workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def evaluate(self, problem: Problem, batch):
        pool = self._ensure_pool()
        futures = {
            pool.submit(problem.evaluate_unit, u): batch_index
            for batch_index, u in enumerate(batch)
        }
        yield from _drain_futures(futures)

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


# Worker-side state for the process pool: each worker receives the problem
# once via the pool initializer instead of with every task.
_WORKER_PROBLEM: Problem | None = None


def _init_worker(problem: Problem):
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem


def _worker_evaluate(u: np.ndarray) -> Evaluation:
    """Simulate one design in a worker, bypassing the worker's cache copy.

    The parent process owns all caching: it checks its cache before
    dispatch and stores worker results afterwards, so worker-side caches
    would only drift (and double-write any on-disk store).
    """
    assert _WORKER_PROBLEM is not None, "process pool not initialized"
    return _WORKER_PROBLEM.evaluate_unit_uncached(u)


class ProcessPoolEvaluator(EvaluationExecutor):
    """Evaluate batch candidates on a process pool (true CPU parallelism).

    The problem must be picklable; otherwise the first ``evaluate`` call
    warns and degrades to serial in-process evaluation.  Cache behaviour is
    parent-owned (see :func:`_worker_evaluate`): already-cached candidates
    are answered without dispatch, and fresh simulations are ingested with
    :meth:`~repro.bo.problem.Problem.store_evaluation`.
    """

    name = "process"

    def __init__(self, n_workers: int | None = None):
        if n_workers is None:
            n_workers = default_pool_workers()
        self.n_workers = check_count("n_workers", n_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_problem: Problem | None = None
        self._serial_fallback = False
        # futures whose results still need ingesting into the parent cache
        # (async submissions dispatched to workers; cached/serial-fallback
        # futures are excluded)
        self._needs_store: set[Future] = set()

    def _ensure_pool(self, problem: Problem) -> ProcessPoolExecutor | None:
        if self._serial_fallback:
            return None
        if self._pool is not None and self._pool_problem is not problem:
            # a new problem needs freshly initialized workers
            self.close()
        if self._pool is None:
            # ship a cache-stripped copy: workers simulate uncached by
            # design (the parent owns all caching), so serializing a
            # possibly-large warm memoization cache to every worker would
            # be pure pickle/transfer waste
            shipped = copy.copy(problem)
            shipped._eval_cache = {}
            try:
                pickle.dumps(shipped)
            except Exception:
                warnings.warn(
                    "problem is not picklable; ProcessPoolEvaluator falling "
                    "back to serial evaluation (use module-level callables "
                    "or a thread executor)",
                    stacklevel=3,
                )
                self._serial_fallback = True
                return None
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_init_worker,
                initargs=(shipped,),
            )
            self._pool_problem = problem
        return self._pool

    def evaluate(self, problem: Problem, batch):
        batch = list(batch)
        pool = self._ensure_pool(problem)
        if pool is None:
            yield from SerialEvaluator().evaluate(problem, batch)
            return
        futures = {}
        for batch_index, u in enumerate(batch):
            cached = problem.lookup_cached(u)
            if cached is not None:
                yield batch_index, cached
            else:
                futures[pool.submit(_worker_evaluate, np.asarray(u, dtype=float))] = (
                    batch_index
                )
        for batch_index, evaluation in _drain_futures(futures):
            problem.store_evaluation(batch[batch_index], evaluation)
            yield batch_index, evaluation

    def submit(self, problem: Problem, u: np.ndarray) -> Future:
        """Dispatch one design to a worker (cache answered parent-side).

        Already-cached designs resolve immediately without touching the
        pool; fresh simulations are ingested into the parent cache by
        :meth:`collect` (exactly once per future).
        """
        u = np.asarray(u, dtype=float)
        pool = self._ensure_pool(problem)
        if pool is None:
            return _completed_future(problem.evaluate_unit(u))
        cached = problem.lookup_cached(u)
        if cached is not None:
            return _completed_future(cached)
        future = pool.submit(_worker_evaluate, u)
        self._needs_store.add(future)
        return future

    def collect(self, problem: Problem, u: np.ndarray, future: Future) -> Evaluation:
        evaluation = future.result()
        if future in self._needs_store:
            self._needs_store.discard(future)
            problem.store_evaluation(u, evaluation)
        return evaluation

    def close(self):
        """Shut the pool down, cancelling queued work (see base class)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_problem = None
            self._needs_store.clear()


class AsyncThreadEvaluator(ThreadPoolEvaluator):
    """Thread pool driven by the refill-on-completion loop.

    Identical machinery to :class:`ThreadPoolEvaluator`; the distinct spec
    (``executor="async-thread"``) is what opts the BO loop into the
    evaluation farm's refill loop instead of the q-point barrier.
    """

    name = "async-thread"
    async_mode = True


class AsyncProcessEvaluator(ProcessPoolEvaluator):
    """Process pool driven by the refill-on-completion loop."""

    name = "async-process"
    async_mode = True


def _drain_futures(futures: dict):
    """Yield ``(batch_index, result)`` pairs as futures complete.

    Exception-safe: when a result raises (poisoned objective) or the
    consumer abandons the generator, every still-outstanding future is
    cancelled so pool shutdown never waits on work nobody will read.
    """
    outstanding = set(futures)
    try:
        while outstanding:
            done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            for future in done:
                yield futures[future], future.result()
    finally:
        for future in outstanding:
            future.cancel()


_EXECUTORS = {
    "serial": SerialEvaluator,
    "thread": ThreadPoolEvaluator,
    "process": ProcessPoolEvaluator,
    "async-thread": AsyncThreadEvaluator,
    "async-process": AsyncProcessEvaluator,
}


def make_evaluator(spec, n_workers: int | None = None) -> EvaluationExecutor:
    """Resolve an executor spec (name or instance) to an executor.

    ``spec`` is ``"serial"``, ``"thread"``, ``"process"``,
    ``"async-thread"``, ``"async-process"`` or an
    :class:`EvaluationExecutor` instance (returned unchanged, in which case
    ``n_workers`` must be left unset).  Pooled specs default their worker
    count to :func:`default_pool_workers`; the serial spec rejects an
    explicit ``n_workers`` instead of silently ignoring it — a caller
    writing ``make_evaluator("serial", n_workers=8)`` almost certainly
    meant a pooled executor.
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


class EvaluationScheduler:
    """Dispatch study trial batches and ingest results deterministically.

    Results are handed to ``on_arrival(iteration, batch_index, evaluation)``
    the moment they complete (monitoring/streaming), but are told to the
    study in batch order via a reorder buffer, so the recorded trace — and
    therefore every downstream surrogate fit — is independent of worker
    scheduling.
    """

    def __init__(self, problem: Problem, executor: EvaluationExecutor, on_arrival=None):
        self.problem = problem
        self.executor = executor
        self.on_arrival = on_arrival

    def run_trials(self, trials, study) -> None:
        """Evaluate one batch of study trials; tell the study in batch order.

        ``trials`` come from :meth:`~repro.bo.study.Study.ask` and results
        are committed via :meth:`~repro.bo.study.Study.tell` through the
        reorder buffer, so the recorded history — and every downstream
        surrogate fit — is independent of worker scheduling.  On an
        evaluation error, the trials told so far are a contiguous
        batch-order prefix.
        """
        trials = list(trials)
        buffered: dict[int, Evaluation] = {}
        next_up = 0
        batch = [trial.u for trial in trials]
        for batch_index, evaluation in self.executor.evaluate(self.problem, batch):
            if self.on_arrival is not None:
                # streaming (single-ask) trials are numbered at tell time;
                # the tells of this call happen in batch order, so such a
                # trial will land as the study's next iteration — report
                # that, not None, to honor the on_arrival contract
                iteration = trials[batch_index].iteration
                if iteration is None:
                    iteration = study._iteration + 1
                self.on_arrival(iteration, batch_index, evaluation)
            buffered[batch_index] = evaluation
            while next_up in buffered:
                study.tell(trials[next_up], buffered.pop(next_up))
                next_up += 1
        if next_up != len(trials):
            raise RuntimeError(
                f"executor returned {next_up}/{len(trials)} batch results"
            )


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
