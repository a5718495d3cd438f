"""The shared evaluation pool: tenancy, fair share, backpressure.

:class:`EvaluationFarm` decouples *who wants evaluations* (tenants —
typically one per :class:`~repro.bo.study.Study`) from *who runs them*
(one executor from :mod:`repro.bo.scheduler`: a thread or process pool,
or the in-process serial executor).  Every closed-loop run goes through
a farm: ``SurrogateBO.run`` registers its study as the only tenant of a
private one.  Tenants submit unit-box designs; the farm forwards at most
``capacity`` of them to the executor at a time and queues the rest,
picking the next dispatch by weighted round-robin — the queued tenant
with the smallest ``dispatched / weight`` credit goes first,
registration order breaking ties — so one chatty study cannot starve
the others.

The farm is a *conduit*, not a scheduler: completion order, virtual
clocks and budget accounting belong to the drivers
(:class:`~repro.farm.driver.FarmStudyDriver`).  What the farm owns is
capacity (``resize()`` changes the dispatch limit mid-run), per-tenant
backpressure (``max_queue`` bounds a tenant's undispatched backlog),
per-task timeout/cancel, and per-tenant evaluation-time EWMA statistics
(the elastic policy's wall-clock signal; under a
:class:`~repro.bo.scheduler.FakeClock` durations come from the clock so
the statistics are deterministic).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

import numpy as np

from repro.bo.config import check_count
from repro.bo.problem import Evaluation, Problem
from repro.bo.scheduler import make_evaluator
from repro.farm.errors import (
    EvaluationTimeout,
    FarmError,
    FarmSaturated,
    UnknownTenant,
)


@dataclass
class FarmTenant:
    """One registered study's identity and accounting on the farm.

    ``dispatched / weight`` is the weighted-round-robin credit (smaller
    goes first); ``eval_ewma`` tracks observed evaluation seconds with
    the tenant's ``ewma_alpha``.  Instances are created by
    :meth:`EvaluationFarm.register` — treat the counters as read-only.
    """

    name: str
    problem: Problem
    weight: float = 1.0
    max_queue: int | None = None
    ewma_alpha: float = 0.3
    dispatched: int = 0
    n_completed: int = 0
    eval_ewma: float | None = None
    order: int = 0
    _queue: deque = field(default_factory=deque, repr=False)

    @property
    def queue_depth(self) -> int:
        """Tasks submitted but not yet forwarded to the executor."""
        return len(self._queue)

    def observe(self, seconds: float) -> None:
        """Fold one observed evaluation duration into the EWMA."""
        seconds = float(seconds)
        if self.eval_ewma is None:
            self.eval_ewma = seconds
        else:
            a = self.ewma_alpha
            self.eval_ewma = a * seconds + (1.0 - a) * self.eval_ewma
        self.n_completed += 1


class FarmTask:
    """One submitted design travelling through the farm.

    ``future`` is ``None`` while the task waits in its tenant's queue;
    :meth:`EvaluationFarm.collect` blocks through both stages.  The
    measured ``duration`` (executor-side seconds, completion-callback
    timed) feeds the tenant EWMA.
    """

    __slots__ = (
        "tenant",
        "u",
        "seq",
        "future",
        "cancelled",
        "duration",
        "_dispatched",
        "_started_at",
    )

    def __init__(self, tenant: FarmTenant, u: np.ndarray, seq: int):
        self.tenant = tenant
        self.u = u
        self.seq = seq
        self.future: Future | None = None
        self.cancelled = False
        self.duration: float | None = None
        self._dispatched = threading.Event()
        self._started_at: float | None = None

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self.cancelled
            else "queued"
            if self.future is None
            else "done"
            if self.future.done()
            else "running"
        )
        return f"FarmTask(#{self.seq} tenant={self.tenant.name!r} {state})"


class EvaluationFarm:
    """A shared, elastic evaluation pool serving many concurrent studies.

    Parameters
    ----------
    executor:
        An executor spec resolved by
        :func:`~repro.bo.scheduler.make_evaluator` (``"async-thread"`` and
        ``"thread"`` build the same pool) or an
        :class:`~repro.bo.scheduler.EvaluationExecutor` instance.  Spec
        strings build (and own) the executor — it is closed with the
        farm; instances stay caller-owned.
    capacity:
        The dispatch limit: at most this many tasks are in the executor
        at once, the rest queue at the farm.  Defaults to the executor's
        worker count.  ``resize()`` changes it mid-run.
    n_workers:
        Worker count for a spec-built executor (defaults like
        :func:`~repro.bo.scheduler.make_evaluator`).
    clock:
        Optional :class:`~repro.bo.scheduler.FakeClock`; when set,
        observed durations come from ``clock.duration(u)`` instead of
        wall time, so tenant statistics are deterministic.
    """

    def __init__(
        self,
        executor="async-thread",
        capacity: int | None = None,
        n_workers: int | None = None,
        clock=None,
    ):
        self._evaluator = make_evaluator(executor, n_workers)
        self._owns_evaluator = self._evaluator is not executor
        if capacity is None:
            capacity = int(getattr(self._evaluator, "n_workers", 1))
        self.capacity = check_count("capacity", capacity)
        self.clock = clock
        self._lock = threading.RLock()
        self._tenants: dict[str, FarmTenant] = {}
        self._running: set[FarmTask] = set()
        self._seq = 0
        self._closed = False

    # -- tenancy ------------------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        problem: Problem,
        weight: float = 1.0,
        max_queue: int | None = None,
        ewma_alpha: float = 0.3,
    ) -> FarmTenant:
        """Add one tenant (study) to the farm; returns its handle."""
        weight = float(weight)
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if not 0.0 < float(ewma_alpha) <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if max_queue is not None:
            max_queue = check_count("max_queue", max_queue)
        with self._lock:
            self._require_open()
            if name in self._tenants:
                raise FarmError(
                    f"tenant {name!r} is already registered; tenant names "
                    "identify studies and must be unique per farm"
                )
            tenant = FarmTenant(
                name=str(name),
                problem=problem,
                weight=weight,
                max_queue=max_queue,
                ewma_alpha=float(ewma_alpha),
                order=len(self._tenants),
            )
            self._tenants[tenant.name] = tenant
            return tenant

    def unregister(self, tenant) -> None:
        """Remove a tenant, cancelling its queued (undispatched) tasks."""
        with self._lock:
            tenant = self._resolve(tenant)
            for task in tenant._queue:
                task.cancelled = True
                task._dispatched.set()
            tenant._queue.clear()
            del self._tenants[tenant.name]

    def tenants(self) -> list[FarmTenant]:
        """Registered tenants in registration order."""
        with self._lock:
            return sorted(self._tenants.values(), key=lambda t: t.order)

    def tenant(self, name: str) -> FarmTenant:
        """The registered tenant named ``name`` (:class:`UnknownTenant` else)."""
        with self._lock:
            return self._resolve(name)

    def _resolve(self, tenant) -> FarmTenant:
        name = tenant.name if isinstance(tenant, FarmTenant) else str(tenant)
        try:
            return self._tenants[name]
        except KeyError:
            raise UnknownTenant(
                f"unknown tenant {name!r}; registered: "
                f"{sorted(self._tenants)}"
            ) from None

    # -- introspection ------------------------------------------------------------

    @property
    def n_running(self) -> int:
        """Tasks currently dispatched to the executor."""
        with self._lock:
            return len(self._running)

    @property
    def queue_depth(self) -> int:
        """Tasks waiting at the farm across all tenants."""
        with self._lock:
            return sum(len(t._queue) for t in self._tenants.values())

    def describe(self) -> dict:
        """JSON-safe snapshot: capacity, load, and per-tenant statistics."""
        with self._lock:
            return {
                "capacity": int(self.capacity),
                "running": len(self._running),
                "queued": sum(len(t._queue) for t in self._tenants.values()),
                "tenants": {
                    t.name: {
                        "weight": float(t.weight),
                        "queue_depth": len(t._queue),
                        "dispatched": int(t.dispatched),
                        "completed": int(t.n_completed),
                        "eval_ewma_s": (
                            None if t.eval_ewma is None else float(t.eval_ewma)
                        ),
                    }
                    for t in self.tenants()
                },
            }

    # -- capacity -----------------------------------------------------------------

    def resize(self, capacity: int) -> None:
        """Change the dispatch limit mid-run (elastic sizing).

        Growing dispatches queued work immediately; shrinking never
        cancels running tasks — it only gates new dispatches, so the
        running count drains down to the new limit as work completes.
        """
        capacity = check_count("capacity", capacity)
        with self._lock:
            self._require_open()
            self.capacity = capacity
            self._pump()

    # -- submit / collect ---------------------------------------------------------

    def submit(self, tenant, u) -> FarmTask:
        """Enqueue one unit-box design for a tenant.

        Dispatches immediately when a slot is free; otherwise the task
        queues, subject to the tenant's ``max_queue`` backpressure bound
        (:class:`~repro.farm.errors.FarmSaturated`).
        """
        u = np.asarray(u, dtype=float)
        with self._lock:
            self._require_open()
            tenant = self._resolve(tenant)
            if (
                tenant.max_queue is not None
                and len(self._running) >= self.capacity
                and len(tenant._queue) >= tenant.max_queue
            ):
                raise FarmSaturated(
                    f"tenant {tenant.name!r} queue is full "
                    f"({len(tenant._queue)}/{tenant.max_queue} queued, "
                    f"{len(self._running)}/{self.capacity} slots busy); "
                    "drain completions before submitting more"
                )
            task = FarmTask(tenant, u, self._seq)
            self._seq += 1
            tenant._queue.append(task)
            self._pump()
            return task

    def collect(self, task: FarmTask, timeout: float | None = None) -> Evaluation:
        """Block until one task's evaluation is available and return it.

        ``timeout`` (seconds) bounds the whole wait — dispatch queueing
        included; on expiry the task is cancelled and
        :class:`~repro.farm.errors.EvaluationTimeout` raised.  Parent-side
        cache bookkeeping (process pools) happens here exactly once.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if not task._dispatched.wait(timeout):
            self.cancel(task)
            raise EvaluationTimeout(
                f"{task!r} not dispatched within {timeout:.3f}s "
                f"(farm capacity {self.capacity})"
            )
        if task.cancelled or task.future is None:
            raise FarmError(f"{task!r} was cancelled and has no result")
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        try:
            task.future.result(timeout=remaining)
        except FutureTimeoutError:
            self.cancel(task)
            raise EvaluationTimeout(
                f"{task!r} exceeded its {timeout:.3f}s evaluation timeout"
            ) from None
        except CancelledError:
            raise FarmError(f"{task!r} was cancelled and has no result") from None
        return self._evaluator.collect(task.tenant.problem, task.u, task.future)

    def cancel(self, task: FarmTask) -> bool:
        """Abandon one task; True when no evaluation will (or did) run.

        Queued tasks are removed outright.  Dispatched tasks are
        future-cancelled — an already-running evaluation cannot be
        interrupted (its result is simply never collected), in which
        case False is returned.
        """
        with self._lock:
            task.cancelled = True
            if task.future is None:
                try:
                    task.tenant._queue.remove(task)
                except ValueError:
                    pass
                task._dispatched.set()
                return True
            return task.future.cancel()

    # -- internals ----------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise FarmError("farm is closed")

    def _pick_tenant(self) -> FarmTenant | None:
        """Weighted round-robin: least dispatched-per-weight queued tenant."""
        best = None
        for tenant in self._tenants.values():
            if not tenant._queue:
                continue
            key = (tenant.dispatched / tenant.weight, tenant.order)
            if best is None or key < best[0]:
                best = (key, tenant)
        return None if best is None else best[1]

    def _pump(self) -> None:
        """Forward queued tasks to the executor while slots are free."""
        with self._lock:
            while len(self._running) < self.capacity:
                tenant = self._pick_tenant()
                if tenant is None:
                    return
                task = tenant._queue.popleft()
                if task.cancelled:
                    continue
                task._started_at = time.monotonic()
                tenant.dispatched += 1
                self._running.add(task)
                future = self._evaluator.submit(tenant.problem, task.u)
                task.future = future
                task._dispatched.set()
                # the callback frees the slot (and re-pumps) the moment
                # the evaluation finishes — not when it is collected — so
                # queued work never waits on a slow consumer
                future.add_done_callback(lambda f, t=task: self._on_done(t))

    def _on_done(self, task: FarmTask) -> None:
        finished = time.monotonic()
        with self._lock:
            if task not in self._running:
                return
            self._running.discard(task)
            if task.future is not None and not task.future.cancelled():
                if self.clock is not None:
                    task.duration = float(self.clock.duration(task.u))
                elif task._started_at is not None:
                    task.duration = finished - task._started_at
                if task.duration is not None and not task.cancelled:
                    task.tenant.observe(task.duration)
            if not self._closed:
                self._pump()

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Cancel queued work and release an owned executor (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for tenant in self._tenants.values():
                for task in tenant._queue:
                    task.cancelled = True
                    task._dispatched.set()
                tenant._queue.clear()
            for task in list(self._running):
                if task.future is not None:
                    task.future.cancel()
        if self._owns_evaluator:
            self._evaluator.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"EvaluationFarm({len(self._tenants)} tenants, "
                f"{len(self._running)}/{self.capacity} running, "
                f"{self.queue_depth} queued)"
            )


__all__ = ["EvaluationFarm", "FarmTask", "FarmTenant"]
