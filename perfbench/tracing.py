"""Out-of-band span tracing for the benchmark's traced run.

The library has no instrumentation of its own, so the traced run wraps the
public entry points of each layer *from the benchmark's files*: a
:class:`Patcher` swaps class attributes for timing wrappers and puts the
original descriptors back afterwards, and a :class:`Tracer` keeps the
spans in memory.

* Spans nest per thread.  A span's *self* time is its duration minus the
  time its direct child spans cover.  A span opened while a span of the
  same name is already open on the thread is not recorded again, so a
  wrapper around an outer and an inner ``maximize`` counts the call once.
* ``Tracer.intervals`` keeps ``(start, end)`` of the spans of selected
  names so coverage can be unioned across threads (the service workload
  runs the study inside the server's handler thread).
* Counters and samples ride along: ``add(name, value)`` sums,
  ``sample(name, value)`` keeps every value for medians and means.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("name", "start", "child", "duration")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.duration = 0.0


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, interval_names=(), clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.interval_names = frozenset(interval_names)
        self.intervals: list[tuple[float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame | None:
        """Start a span; ``None`` when ``name`` is already open here."""
        stack = self._stack()
        if any(frame.name == name for frame in stack):
            return None
        frame = _Frame(name, self.clock())
        stack.append(frame)
        return frame

    def close(self, frame: _Frame | None) -> None:
        if frame is None:
            return
        end = self.clock()
        stack = self._stack()
        stack.pop()
        frame.duration = end - frame.start
        if stack:
            stack[-1].child += frame.duration
        with self._lock:
            self.calls[frame.name] += 1
            self.total[frame.name] += frame.duration
            self.self_time[frame.name] += frame.duration - frame.child
            if frame.name in self.interval_names:
                self.intervals.append((frame.start, end))

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by the recorded intervals."""
        covered = 0.0
        cursor = start
        for lo, hi in sorted(self.intervals):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered


def timed(tracer: Tracer, name: str | None, after=None):
    """Wrapper factory: time calls as span ``name``, then run ``after``.

    ``after(tracer, args, kwargs, result, frame)`` records counters; it
    runs outside the span so its cost is not charged to the layer.
    ``name=None`` records no span (a counting-only hook).
    """

    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name) if name is not None else None
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(tracer, args, kwargs, result, frame)
            return result

        return wrapper

    return make


class Patcher:
    """Install wrappers on classes and restore the original attributes.

    ``wrap(cls, name, make)`` replaces ``cls.name`` with ``make(func)``.
    Staticmethods and classmethods are unwrapped to their function, wrapped
    and re-wrapped in the same descriptor type: setting a bare wrapped
    staticmethod function on a class would turn it into an instance method
    and shift its arguments.  An attribute ``cls`` only inherits is set on
    ``cls`` and deleted again on :meth:`restore`.
    """

    def __init__(self):
        self._saved: list[tuple[type, str, bool, object]] = []

    def wrap(self, cls: type, name: str, make) -> None:
        owner = next((k for k in cls.__mro__ if name in vars(k)), None)
        if owner is None:
            raise AttributeError(f"{cls.__name__} has no attribute {name!r}")
        raw = vars(owner)[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((cls, name, name in vars(cls), raw))
        setattr(cls, name, new)

    def snapshot(self) -> list:
        """The saved originals, for :meth:`is_restored` after :meth:`restore`."""
        return list(self._saved)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._saved:
            cls, name, owned, raw = self._saved.pop()
            if owned:
                setattr(cls, name, raw)
            else:
                delattr(cls, name)

    @staticmethod
    def is_restored(snapshot) -> bool:
        """True when every ``(cls, name, owned, raw)`` is back in place."""
        for cls, name, owned, raw in snapshot:
            if owned and vars(cls).get(name) is not raw:
                return False
            if not owned and name in vars(cls):
                return False
        return True
