"""Zero-dependency span tracing for the search pipeline.

A :class:`Tracer` records nested :class:`Span`\\ s — monotonic start,
duration, free-form tags (batch size, candidate ratio, shard id...) —
into a bounded ring buffer.  The design constraints, in order:

* **near-zero overhead when disabled** — ``tracer.span(...)`` returns a
  shared no-op singleton without allocating a span, touching a context
  variable, or taking a lock, so instrumentation can live permanently
  on hot paths (``encode_batch``, backend scoring, the micro-batch
  leader) and cost one method call plus a kwargs dict per site;
* **implicit parenting via contextvars** — ``with tracer.span("a"):``
  makes every span opened inside (same thread / task) a child of
  ``a``, which is how one ``engine.search`` span ends up the shared
  parent of the encode / prefilter / scoring spans of a whole
  micro-batch;
* **cross-thread linkage** — :meth:`Tracer.capture` snapshots the
  current span so a *different* thread (the request that leads a
  micro-batch, a scoring thread) can :meth:`Tracer.emit`
  explicitly-timed spans under it; this carries a request's identity
  from its HTTP handler thread into the batch that served it, and
  per-shard timings into the fan-out span's trace;
* **request identity** — every span carries an optional ``request_id``
  (inherited from its parent unless given), generated at service
  ingress by :func:`new_request_id` and queried later to assemble one
  request's stage breakdown.

Finished spans are offered to registered listeners (the service bridges
them into per-stage Prometheus histograms) and appended to the ring
buffer, which :mod:`repro.obs.export` renders as Chrome
``trace_event`` JSON.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "lane_name",
    "thread_names",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "new_request_id",
    "DEFAULT_CAPACITY",
]

#: Ring-buffer capacity a bare ``enable()`` installs.
DEFAULT_CAPACITY = 4096

_SPAN_IDS = itertools.count(1)
_get_ident = threading.get_ident

#: The innermost open span of the current thread/task (None at top level).
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)


def new_request_id() -> str:
    """A fresh 16-hex-char request identifier: 64 random bits."""
    return os.urandom(8).hex()


class Span:
    """One timed, tagged node of a trace tree.

    Spans are context managers: entering stamps the monotonic start and
    installs the span as the thread's current parent; exiting computes
    ``duration``, restores the parent, and hands the finished span to
    the tracer.  ``request_id`` and ``route`` are inherited from the
    parent when not given explicitly.  ``lane`` is where the span is
    drawn: an explicit name (the fan-out core's virtual ``shard-N``
    lanes) or the ident of the thread that opened it, which
    :attr:`thread` resolves to a name only when it is read.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "request_id",
        "route",
        "start",
        "duration",
        "tags",
        "lane",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Optional["Span"] = None,
        request_id: Optional[str] = None,
        route: Optional[str] = None,
        tags: Optional[Dict[str, object]] = None,
        thread: Optional[str] = None,
    ) -> None:
        self._tracer = tracer
        self._token = None
        self.name = name
        self.span_id = next(_SPAN_IDS)
        if parent is None:
            self.parent_id = None
            self.request_id = request_id
            self.route = route
        else:
            self.parent_id = parent.span_id
            self.request_id = parent.request_id if request_id is None else request_id
            self.route = parent.route if route is None else route
        self.start = 0.0
        self.duration = 0.0
        self.tags: Dict[str, object] = tags if tags is not None else {}
        self.lane: Union[str, int] = _get_ident() if thread is None else thread

    @property
    def thread(self) -> str:
        """The lane's name: a virtual lane, or its thread's name (see :func:`lane_name`)."""
        return lane_name(self.lane)

    def tag(self, **tags: object) -> "Span":
        """Attach (or overwrite) tags; returns self for chaining."""
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.tags.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self)
        return False

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON endpoints, tests)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "request_id": self.request_id,
            "route": self.route,
            "start": self.start,
            "duration_ms": round(1000.0 * self.duration, 4),
            "thread": self.thread,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"request={self.request_id}, {1000.0 * self.duration:.3f} ms)"
        )


def thread_names() -> Dict[int, str]:
    """Ident -> name of every live thread (one lookup for a whole export)."""
    return {thread.ident: thread.name for thread in threading.enumerate()}


def lane_name(lane: Union[str, int], names: Optional[Dict[int, str]] = None) -> str:
    """The name of a span's :attr:`~Span.lane`.

    A virtual lane is its own name; a thread ident is looked up among
    ``names`` (default: the live threads, :func:`thread_names`).  A
    thread that has exited since reads ``thread-<ident>``.
    """
    if isinstance(lane, str):
        return lane
    if names is None:
        names = thread_names()
    return names.get(lane, f"thread-{lane}")


class _NullSpan:
    """Shared no-op stand-in returned by a disabled tracer.

    Works as a context manager *and* as a span (``tag`` is a no-op), so
    instrumentation sites never branch on the tracer state.  A single
    instance is shared process-wide; it is immutable by construction.
    """

    __slots__ = ()

    name = "null"
    span_id = 0
    parent_id = None
    request_id = None
    route = None
    start = 0.0
    duration = 0.0
    tags: Dict[str, object] = {}
    lane = ""
    thread = ""

    def tag(self, **tags: object) -> "_NullSpan":
        """No-op; returns self so call sites can chain unconditionally."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton every ``span()`` call of a disabled tracer returns.
NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory + bounded ring buffer of finished spans.

    Disabled by default; :meth:`enable` turns recording on (optionally
    resizing the ring buffer).  All methods are thread-safe: spans are
    created and finished on arbitrary threads, the buffer is a
    ``deque(maxlen=...)`` whose appends are atomic, and listeners are
    invoked outside any lock (exceptions are swallowed — observability
    must never break the pipeline).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = False
        self._records: "deque[Span]" = deque(maxlen=capacity)
        # Replaced, never mutated, so a finishing span iterates it as is.
        self._listeners: Tuple[Callable[[Span], None], ...] = ()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._epoch_wall = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Ring-buffer size (oldest spans are evicted beyond it)."""
        return self._records.maxlen or 0

    def enable(self, capacity: Optional[int] = None) -> "Tracer":
        """Start recording spans; optionally resize (and clear) the buffer."""
        with self._lock:
            if capacity is not None and capacity != self._records.maxlen:
                if capacity < 1:
                    raise ValueError(f"capacity must be >= 1, got {capacity}")
                self._records = deque(maxlen=capacity)
            self._epoch = time.perf_counter()
            self._epoch_wall = time.time()
            self.enabled = True
        return self

    def disable(self) -> "Tracer":
        """Stop recording; the buffer keeps its spans until :meth:`clear`."""
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop all recorded spans and restart the export epoch."""
        with self._lock:
            self._records.clear()
            self._epoch = time.perf_counter()
            self._epoch_wall = time.time()

    @property
    def epoch(self) -> float:
        """``time.perf_counter()`` origin of the current recording window."""
        return self._epoch

    @property
    def epoch_wall(self) -> float:
        """Wall-clock time (``time.time()``) matching :attr:`epoch`."""
        return self._epoch_wall

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------

    def span(
        self,
        name: str,
        request_id: Optional[str] = None,
        route: Optional[str] = None,
        **tags: object,
    ):
        """Open a child span of the thread's current span.

        Returns the shared :data:`NULL_SPAN` when disabled — the hot
        path pays one attribute check and no allocation beyond the
        caller's kwargs.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, _CURRENT.get(), request_id, route, tags or None)

    def emit(
        self,
        name: str,
        duration: float,
        parent: Optional[Span] = None,
        request_id: Optional[str] = None,
        route: Optional[str] = None,
        thread: Optional[str] = None,
        start: Optional[float] = None,
        **tags: object,
    ) -> Optional[Span]:
        """Record an externally-timed span without entering a context.

        This is how timings measured elsewhere join the trace: the
        scheduler emits each request's queue wait when its batch
        starts (parented on the span :meth:`capture`\\ d at submit
        time), and the fan-out core emits per-part scoring spans timed
        by the scorers themselves onto virtual ``shard-N`` lanes.
        ``start`` is a ``perf_counter`` value; omitted, the span is
        assumed to have just ended.
        """
        if not self.enabled:
            return None
        if parent is None:
            parent = _CURRENT.get()
        if parent is NULL_SPAN:
            parent = None
        span = Span(
            self,
            name,
            parent=parent,
            request_id=request_id,
            route=route,
            tags=tags or None,
            thread=thread,
        )
        span.duration = float(duration)
        span.start = (
            float(start)
            if start is not None
            else time.perf_counter() - span.duration
        )
        self._finish(span)
        return span

    def capture(self) -> Optional[Span]:
        """The current span of this thread/task (for cross-thread emits)."""
        if not self.enabled:
            return None
        return _CURRENT.get()

    def current_request_id(self) -> Optional[str]:
        """Request id of the innermost open span, if any."""
        current = _CURRENT.get()
        return current.request_id if current is not None else None

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Register a finished-span callback (idempotent per callable)."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners = self._listeners + (listener,)

    def remove_listener(self, listener: Callable[[Span], None]) -> None:
        """Unregister a callback registered with :meth:`add_listener`."""
        with self._lock:
            self._listeners = tuple(
                known for known in self._listeners if known != listener
            )

    def _finish(self, span: Span) -> None:
        """Record one finished span and notify listeners."""
        if not self.enabled:
            return
        self._records.append(span)
        for listener in self._listeners:
            try:
                listener(span)
            except Exception:  # noqa: BLE001 - observability never raises
                pass

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def records(self) -> List[Span]:
        """Snapshot of the ring buffer, oldest first."""
        return list(self._records)

    def spans_for(self, request_id: str) -> List[Span]:
        """All recorded spans carrying ``request_id`` (oldest first).

        Filters a snapshot: other threads keep appending while the
        filter runs Python code, and a deque refuses to go on iterating
        once it has changed (copying it runs no Python code, so no
        other thread runs meanwhile).
        """
        return [s for s in self.records() if s.request_id == request_id]


#: Process-global tracer shared by all instrumentation sites.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global :class:`Tracer` every pipeline stage reports to."""
    return _TRACER
