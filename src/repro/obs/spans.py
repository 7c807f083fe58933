"""Span-based pipeline tracing (wall-clock + optional peak memory).

Usage::

    from repro.obs import enable_tracing, get_tracer, span

    enable_tracing(trace_memory=True)
    with span("symbolic.factorize"):
        ...
    for s in get_tracer().spans:
        print(s.name, s.duration_s)

The global tracer is *disabled* by default and ``span()`` then costs one
dict-free function call returning a shared no-op context manager, so
library code can be instrumented unconditionally.  Spans nest; each span
records its depth and parent name so exporters can rebuild the hierarchy.

This module is the only place a span is made.  Three entry points share
one :class:`Span` record and one listener path:

* :func:`span` — a timed block kept in the tracer's in-memory list (and
  so in run artifacts) and sent to every listener;
* :func:`task_span` — a timed block with ``attrs`` sent to listeners
  only, for high-volume worker-side instrumentation (per-supernode
  tasks, per-case verify jobs, coalesced serve batches) that must not
  grow run artifacts;
* :func:`record_span` — an already-timed span (e.g. a server request
  whose phases are known only when it completes), also listeners only.

With no listener registered, :func:`task_span` returns the shared no-op
context manager, so instrumented code costs one check.

The tracer is thread-safe: the open-span stack is thread-local (so spans
opened concurrently from worker threads — e.g. the DAG-dispatched
numeric pool — nest within their own thread, not each other), completed
spans are appended under a lock, and registered completion listeners
(:meth:`Tracer.add_listener`, used by :mod:`repro.obs.telemetry` to
write spans into the per-process event sink) are invoked in the
completing thread.  Every span carries the id of the thread that
completed it (``tid``).

With ``trace_memory=True`` the tracer also samples :mod:`tracemalloc` and
records the peak traced allocation observed while the span was open (the
peak is reset as each span starts, so with *nested* spans an outer span
reports the peak since its most recent child closed; top-level phase
spans — the intended granularity — report true per-phase peaks).
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    """One completed pipeline phase."""

    name: str
    start_s: float          # perf_counter timestamp at entry
    duration_s: float
    depth: int = 0
    parent: str | None = None
    peak_mem_bytes: int | None = None
    attrs: dict | None = None
    tid: int | None = None   # completing thread (threading.get_ident)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "parent": self.parent,
            "peak_mem_bytes": self.peak_mem_bytes,
        }
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"], start_s=d["start_s"],
            duration_s=d["duration_s"], depth=d.get("depth", 0),
            parent=d.get("parent"),
            peak_mem_bytes=d.get("peak_mem_bytes"),
            attrs=d.get("attrs"),
        )


class _NullContext:
    """Reusable no-op context manager (zero-allocation disabled path)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class _TaskSpan:
    """Times one block and sends it to the tracer's listeners only."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._tracer.record_span(self._name, self._start,
                                 time.perf_counter() - self._start,
                                 **self._attrs)
        return False


class Tracer:
    """Collects :class:`Span` records from ``span(...)`` blocks."""

    def __init__(self) -> None:
        self.enabled = False
        self.trace_memory = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._listeners: list[Callable[[Span], None]] = []
        self._started_tracemalloc = False

    @property
    def _stack(self) -> list[str]:
        # Per-thread open-span stack: concurrent spans from worker
        # threads must not corrupt each other's parent/depth chains.
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- lifecycle ----------------------------------------------------------

    def enable(self, trace_memory: bool = False) -> None:
        self.enabled = True
        self.trace_memory = trace_memory
        if trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def disable(self) -> None:
        self.enabled = False
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        self._local = threading.local()

    # -- listeners -----------------------------------------------------------

    # The listener list is replaced, never mutated, so the recording
    # paths read it without taking the lock.

    def add_listener(self, fn: Callable[[Span], None]) -> None:
        """Call ``fn(span)`` in the completing thread for every span."""
        with self._lock:
            if fn not in self._listeners:
                self._listeners = [*self._listeners, fn]

    def remove_listener(self, fn: Callable[[Span], None]) -> None:
        with self._lock:
            self._listeners = [f for f in self._listeners if f != fn]

    @property
    def listening(self) -> bool:
        """True while at least one listener is registered."""
        return bool(self._listeners)

    def _notify(self, completed: Span) -> None:
        for fn in self._listeners:
            fn(completed)

    # -- recording ----------------------------------------------------------

    def span(self, name: str):
        if not self.enabled:
            return _NULL_CONTEXT
        return self._record(name)

    @contextmanager
    def _record(self, name: str):
        stack = self._stack
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(name)
        sample_mem = self.trace_memory and tracemalloc.is_tracing()
        if sample_mem:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            peak = (tracemalloc.get_traced_memory()[1]
                    if sample_mem else None)
            stack.pop()
            completed = Span(
                name=name, start_s=start, duration_s=duration,
                depth=depth, parent=parent, peak_mem_bytes=peak,
                tid=threading.get_ident(),
            )
            with self._lock:
                self.spans.append(completed)
            self._notify(completed)

    def task_span(self, name: str, **attrs):
        """Time a block and send it to the listeners only (never into
        :attr:`spans`); the shared no-op while nothing listens."""
        if not self._listeners:
            return _NULL_CONTEXT
        return _TaskSpan(self, name, attrs)

    def record_span(self, name: str, start_s: float, duration_s: float,
                    depth: int = 0, **attrs) -> None:
        """Send a span whose timing is already known to the listeners
        only (never into :attr:`spans`)."""
        if not self._listeners:
            return
        self._notify(Span(name=name, start_s=start_s,
                          duration_s=duration_s, depth=depth,
                          attrs=attrs or None,
                          tid=threading.get_ident()))

    # -- queries ------------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: str) -> float:
        return sum(s.duration_s for s in self.find(name))

    def export(self) -> list[dict]:
        """Spans as JSON-ready dicts, in completion order."""
        return [s.to_dict() for s in self.spans]


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer used by :func:`span`."""
    return _TRACER


def enable_tracing(trace_memory: bool = False) -> Tracer:
    """Enable the global tracer (idempotent); returns it."""
    _TRACER.enable(trace_memory=trace_memory)
    return _TRACER


def disable_tracing() -> None:
    _TRACER.disable()


def span(name: str):
    """Context manager timing one pipeline phase on the global tracer.

    No-op (and allocation-free) while tracing is disabled.
    """
    return _TRACER.span(name)


def task_span(name: str, **attrs):
    """Listener-only timed block on the global tracer (see
    :meth:`Tracer.task_span`); no-op while nothing listens."""
    return _TRACER.task_span(name, **attrs)


def record_span(name: str, start_s: float, duration_s: float,
                depth: int = 0, **attrs) -> None:
    """Send an already-timed span to the global tracer's listeners."""
    _TRACER.record_span(name, start_s, duration_s, depth, **attrs)
