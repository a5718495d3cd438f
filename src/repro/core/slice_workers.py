"""Process-wide slice workers for the stacked NN-GP fit, and the BLAS pin.

Performance architecture — whole slices on separate cores
---------------------------------------------------------

Every stacked operation of the likelihood training is per-slice (the
property active-slice compaction relies on), so the S = K·T slices of one
fit can train as independent groups with arithmetic identical to one
pass over the whole stack.
:meth:`repro.core.trainer.BatchedFeatureGPTrainer.train` therefore splits
the numpy likelihood phase into ``min(repro.utils.default_pool_workers(), S)``
contiguous groups: group 0 trains in the calling thread, every other
group in one of the workers kept here.

* **Workers** are plain ``subprocess`` children of ``sys.executable``,
  started by the first split fit (importing this module starts nothing)
  and shared by every fit of the process.  Each starts with
  ``OPENBLAS_NUM_THREADS=1``, receives the parent's ``sys.path`` in a
  handshake (a harness may add ``src`` in-process, not through
  ``PYTHONPATH``), and exchanges length-prefixed pickles with the parent
  over two dedicated pipes; its stdout is ``/dev/null``.  Why not the
  alternatives: a ``spawn`` worker re-runs an unguarded user script's
  top-level code, a ``ProcessPoolExecutor`` leaves a manager thread that a
  later fork-based evaluation pool inherits, and per-study workers would
  mean one process per resident service study.
* **The BLAS pin.**  The trainer runs the caller's side of every numpy
  fit with numpy's and scipy's bundled OpenBLAS on one thread
  (:func:`blas_single_thread`), split or not, as the workers run.  The
  caller's BLAS threads then do not contend with the workers' cores, and
  a one-group fit rounds as a split one does: from N ~ 500 training
  points OpenBLAS's threaded kernels round differently.  At the paper's
  sizes a second BLAS thread buys at most ~10%, and next to a busy core it
  costs ~3x.
* **One group in the caller** instead when :meth:`SliceWorkers.checkout`
  yields nothing: inside a multiprocessing child (repeat pools, farm
  process workers), while another thread's fit holds the workers, on one
  usable CPU, or when no worker can start.  A worker that dies mid-fit
  costs only time: its group trains in the caller, and the next fit
  starts a replacement.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import warnings
from pathlib import Path

from repro import utils

#: what a worker runs: ignore SIGINT (a terminal's Ctrl-C reaches the whole
#: process group; the parent decides when a worker ends), read the parent's
#: ``sys.path`` (the first framed message), then serve training tasks.
#: Stdlib only until the path is set.
_BOOTSTRAP = """\
import os, pickle, signal, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
tasks = os.fdopen(int(sys.argv[1]), "rb")
sys.path[:] = pickle.loads(tasks.read(int.from_bytes(tasks.read(8), "big")))
from repro.core.slice_workers import serve
serve(tasks, os.fdopen(int(sys.argv[2]), "wb"))
"""

#: seconds a closing worker gets to exit on its own before it is killed
_EXIT_GRACE_S = 5.0


# -- the BLAS pin ----------------------------------------------------------------------


@functools.cache
def _blas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of numpy's and scipy's OpenBLAS.

    Found through ctypes in the wheels' bundled libraries (``scipy-openblas``
    exports ``scipy_openblas_*_num_threads[64_]``, older wheels
    ``openblas_*_num_threads[64_]``); empty when none is found.
    """
    import numpy
    import scipy

    controls = []
    for module in (numpy, scipy):
        root = Path(module.__file__).resolve().parent
        libraries = sorted(root.parent.glob(f"{module.__name__}.libs/*openblas*"))
        libraries += sorted(root.glob(".dylibs/*openblas*"))
        for path in libraries:
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if setter is None or getter is None:
                        continue
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    controls.append((getter, setter))
    return tuple(controls)


class _BlasPin:
    """The process's one BLAS pin, shared by every thread that holds it.

    OpenBLAS's thread count is process-wide, and fits in several threads
    (service studies, say) pin it at once, so the pin is counted: the first
    holder saves the counts and sets 1, the last one out restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved: list[int] = []

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                controls = _blas_thread_controls()
                self._saved = [get() for get, _ in controls]
                for _, set_threads in controls:
                    set_threads(1)
            self._holders += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                for (_, set_threads), count in zip(_blas_thread_controls(), self._saved):
                    set_threads(count)


_BLAS_PIN = _BlasPin()


def blas_single_thread() -> _BlasPin:
    """A context manager running its body with numpy's and scipy's OpenBLAS on one thread.

    The caller's thread counts are restored when the last concurrent holder
    leaves; without a bundled OpenBLAS exposing the thread controls this is
    a no-op.
    """
    return _BLAS_PIN


# -- workers ---------------------------------------------------------------------------


class WorkerLost(RuntimeError):
    """A slice worker exited or closed its pipe before it replied."""


class _Worker:
    """One worker process and the parent's ends of its two pipes."""

    def __init__(self):
        task_read, self._task_fd = os.pipe()
        self._result_fd, result_write = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _BOOTSTRAP, str(task_read), str(result_write)],
                pass_fds=(task_read, result_write),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            )
        except BaseException:
            os.close(self._task_fd)
            os.close(self._result_fd)
            raise
        finally:
            os.close(task_read)
            os.close(result_write)
        try:
            self.send(list(sys.path))
        except WorkerLost:
            self.close()
            raise

    def send(self, obj) -> None:
        """Frame and write one pickle; :class:`WorkerLost` if the pipe broke."""
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(payload).to_bytes(8, "big") + payload)
        try:
            while view:
                view = view[os.write(self._task_fd, view) :]
        except BrokenPipeError:
            raise WorkerLost(f"slice worker {self.proc.pid} exited") from None

    def receive(self):
        """Read one framed pickle; :class:`WorkerLost` on end of file."""
        size = int.from_bytes(self._read_exact(8), "big")
        return pickle.loads(self._read_exact(size))

    def _read_exact(self, size: int) -> bytearray:
        buf = bytearray()
        while len(buf) < size:
            chunk = os.read(self._result_fd, size - len(buf))
            if not chunk:
                raise WorkerLost(f"slice worker {self.proc.pid} exited")
            buf += chunk
        return buf

    def close(self, kill: bool = False) -> None:
        """End the worker (closing its task pipe ends its loop) and reap it."""
        if kill:
            self.proc.kill()
        os.close(self._task_fd)
        try:
            self.proc.wait(timeout=_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        os.close(self._result_fd)

    def forget(self) -> None:
        """In a forked child: drop this process's copies of the pipes only."""
        os.close(self._task_fd)
        os.close(self._result_fd)


class SliceWorkers:
    """The worker processes split fits share; see the module docstring.

    :meth:`checkout` lends them to one fit at a time and starts missing
    ones, :meth:`run` spreads that fit's tasks over them, and :meth:`close`
    ends them all (also at interpreter exit).  A worker that failed or
    holds an abandoned task is ended and dropped, so the next checkout
    starts a replacement.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        # workers a forked child inherited: never used or reaped there (the
        # parent owns them), only kept referenced so no finalizer runs
        self._inherited: list[_Worker] = []
        self._atexit = False

    @contextlib.contextmanager
    def checkout(self, n_stack: int):
        """Workers for the other groups of one fit over ``n_stack`` slices.

        Yields up to ``min(default_pool_workers(), n_stack) - 1`` started
        workers, or an empty list when the fit must train as one group in
        the caller (see the module docstring).
        """
        wanted = min(utils.default_pool_workers(), n_stack) - 1
        if (
            wanted < 1
            or multiprocessing.parent_process() is not None
            or not self._lock.acquire(blocking=False)
        ):
            yield []
            return
        try:
            while len(self._workers) < wanted:
                try:
                    self._workers.append(_Worker())
                except (OSError, WorkerLost):
                    break
                if not self._atexit:
                    atexit.register(self.close)
                    self._atexit = True
            yield self._workers[:wanted]
        finally:
            self._lock.release()

    def run(self, workers: list, fn, tasks: list) -> list:
        """``[fn(*task) for task in tasks]``, spread over checked-out workers.

        ``tasks[0]`` runs in this thread (the trainer has pinned its BLAS);
        ``tasks[i]`` goes to ``workers[i - 1]``, which runs ``fn`` (pickled
        by reference) on its copy of the task.  A task whose worker cannot
        take it or dies runs here instead.  An exception a task raised,
        here or in a worker, is re-raised unchanged; warnings a worker
        caught are re-issued here.
        """
        results = [None] * len(tasks)
        busy, local = [], [0]
        for i, worker in enumerate(workers, 1):
            try:
                worker.send((fn, tasks[i]))
                busy.append((i, worker))
            except WorkerLost:
                self._drop(worker)
                local.append(i)
        try:
            for i in local:
                results[i] = fn(*tasks[i])
            while busy:
                i, worker = busy[0]
                try:
                    ok, value, caught = worker.receive()
                except WorkerLost:
                    busy.pop(0)
                    self._drop(worker)
                    results[i] = fn(*tasks[i])
                    continue
                busy.pop(0)
                for category, message, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno)
                if not ok:
                    raise value
                results[i] = value
        except BaseException:
            for _, worker in busy:
                self._drop(worker)
            raise
        return results

    def close(self) -> None:
        """End every worker; a later split fit starts new ones."""
        with self._lock:
            workers, self._workers = self._workers, []
            for worker in workers:
                worker.close()

    def _drop(self, worker: _Worker) -> None:
        self._workers.remove(worker)
        worker.close(kill=True)

    def _after_fork_in_child(self) -> None:
        self._lock = threading.Lock()
        for worker in self._workers:
            worker.forget()
        self._inherited += self._workers
        self._workers = []


#: the process-wide worker set every split fit checks out
WORKERS = SliceWorkers()


def _after_fork_in_child() -> None:
    WORKERS._after_fork_in_child()
    # a fork can copy the lock held by another thread; the child's pin
    # starts over from the counts it inherited
    _BLAS_PIN.__init__()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def serve(tasks, results) -> None:
    """A worker's loop: run each task the parent sends, reply with the outcome.

    Runs until the parent closes the task pipe.  A reply is
    ``(ok, value_or_exception, warnings)``; warnings are recorded here and
    re-issued by the parent, where its filters apply.
    """
    while True:
        header = tasks.read(8)
        if len(header) < 8:
            return
        fn, task = pickle.loads(tasks.read(int.from_bytes(header, "big")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                reply = (True, fn(*task))
            except Exception as exc:
                reply = (False, exc)
        caught = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        payload = pickle.dumps((*reply, caught), protocol=pickle.HIGHEST_PROTOCOL)
        results.write(len(payload).to_bytes(8, "big"))
        results.write(payload)
        results.flush()
