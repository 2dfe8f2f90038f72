"""Dynamic micro-batching: coalesce single-spectrum requests.

The service's hot path is a *vectorized batch search* (one fused
``encode_batch`` pass, then XOR/popcount over packed windows), but
online clients arrive one spectrum at a time.
The :class:`MicroBatchScheduler` bridges the two: ``submit`` enqueues a
spectrum and returns a :class:`~concurrent.futures.Future`; a single
background flusher thread collects the queue into batches and hands
them to the runner callback.

The flusher is **work-conserving**: whenever it is idle and anything is
queued it dispatches the whole queue (up to ``max_batch``) at once — an
**immediate** flush — so a lone client never waits for company that is
not coming.  Batches form from back-pressure instead: the runner
executes outside the queue lock, clients keep enqueuing while a batch
is being scored, and the flusher takes everything that piled up when it
comes back (a **full** flush once ``max_batch`` are waiting).  That is
what lets batches grow exactly when there is load to amortise (the
HyperOMS observation: OMS throughput is batching).

``max_wait_ms > 0`` is an opt-in linger on top: the flusher then holds
a partial batch until it fills or its *oldest* request has waited that
long (a **timeout** flush), trading that much latency for larger
batches under trickle traffic.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.trace import Span, get_tracer


@dataclass
class SchedulerStats:
    """Flush accounting, exported via the service ``/stats`` endpoint."""

    requests: int = 0
    batches: int = 0
    full_flushes: int = 0
    immediate_flushes: int = 0
    timeout_flushes: int = 0
    drain_flushes: int = 0
    max_batch_size: int = 0
    total_batched: int = 0
    total_queue_wait_seconds: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_submit(self, count: int = 1) -> None:
        """Count ``count`` spectra submitted to the batcher."""
        with self._lock:
            self.requests += count

    def record_flush(self, size: int, reason: str, wait_seconds: float) -> None:
        """Record one flushed batch (size, trigger reason, queue wait)."""
        with self._lock:
            self.batches += 1
            self.total_batched += size
            self.max_batch_size = max(self.max_batch_size, size)
            self.total_queue_wait_seconds += wait_seconds
            if reason == "full":
                self.full_flushes += 1
            elif reason == "immediate":
                self.immediate_flushes += 1
            elif reason == "timeout":
                self.timeout_flushes += 1
            else:
                self.drain_flushes += 1

    def snapshot(self) -> Dict[str, float]:
        """Point-in-time copy of the counters as plain floats."""
        with self._lock:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "full_flushes": self.full_flushes,
                "immediate_flushes": self.immediate_flushes,
                "timeout_flushes": self.timeout_flushes,
                "drain_flushes": self.drain_flushes,
                "max_batch_size": self.max_batch_size,
                "mean_batch_size": (
                    self.total_batched / self.batches if self.batches else 0.0
                ),
                "mean_queue_wait_ms": (
                    1000.0 * self.total_queue_wait_seconds / self.total_batched
                    if self.total_batched
                    else 0.0
                ),
            }


class MicroBatchScheduler:
    """Queue single requests, flush them to a batch runner.

    Parameters
    ----------
    runner:
        ``runner(items) -> results`` where ``items`` is the list of
        submitted objects in arrival order and ``results`` is a
        same-length sequence; ``results[i]`` resolves the future of
        ``items[i]``.  A runner exception fails every future in the
        batch (clients see the error, the scheduler survives).
    max_batch:
        Largest batch handed to the runner (>= 1); a queue this deep
        flushes without lingering.
    max_wait_ms:
        How long an idle flusher lingers for a partial batch to fill
        (>= 0), measured from the oldest queued request.  Zero — the
        service default, see :class:`~repro.service.server.ServiceConfig`
        — never lingers: batching then comes from back-pressure alone.
    flush_observer:
        Optional ``observer(size, reason, wait_seconds)`` called once
        per flushed batch (``wait_seconds`` is the summed queue wait of
        the batch).  Used by the service's metrics export; observer
        exceptions are swallowed so instrumentation can never kill the
        flusher.
    route:
        Optional route label stamped onto the scheduler's trace spans
        (``scheduler.batch`` / ``scheduler.queue_wait``), so per-stage
        histograms attribute flusher time to the right route.
    """

    def __init__(
        self,
        runner: Callable[[List[object]], Sequence[object]],
        *,
        max_batch: int,
        max_wait_ms: float,
        flush_observer: Optional[Callable[[int, str, float], None]] = None,
        route: Optional[str] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._runner = runner
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self.stats = SchedulerStats()
        self._flush_observer = flush_observer
        self.route = route
        #: Queue entries: (item, future, enqueue_monotonic, trace_ctx).
        #: ``trace_ctx`` is the submitter's current span (or None), so
        #: the flusher can parent each request's queue-wait span on the
        #: HTTP request that enqueued it.
        self._queue: List[Tuple[object, Future, float, Optional[Span]]] = []
        self._inflight: List[Tuple[object, Future, float, Optional[Span]]] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._thread = threading.Thread(
            target=self._flush_loop, name="microbatch-flusher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def submit(self, item: object) -> "Future":
        """Enqueue one request; the future resolves after its batch runs."""
        return self.submit_many([item])[0]

    def submit_many(self, items: Sequence[object]) -> List["Future"]:
        """Enqueue several requests under one lock acquisition.

        Semantically identical to calling :meth:`submit` in a loop but
        pays the queue lock and flusher wake-up once, which matters for
        clients streaming whole spectrum lists (``/search_batch``).
        """
        futures: List[Future] = [Future() for _ in items]
        now = time.monotonic()
        ctx = get_tracer().capture()
        with self._wakeup:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            for item, future in zip(items, futures):
                self._queue.append((item, future, now, ctx))
            self.stats.record_submit(len(futures))
            self._wakeup.notify()
        return futures

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the flusher (idempotent, safe to call concurrently).

        ``drain=True`` (the default) lets queued requests run as final
        batches before the thread exits; ``drain=False`` fails them
        with :class:`RuntimeError` instead.

        ``timeout`` bounds the join: if the flusher is still alive after
        ``timeout`` seconds (a wedged runner — e.g. a worker pool that
        will never answer), every future still pending — queued *and*
        in-flight — is failed with :class:`RuntimeError` so no client
        hangs on ``result()``, and the daemon flusher thread is left to
        die with the process.  A concurrent second ``close()`` call also
        waits for the drain rather than returning while batches are
        still running (callers close the engine right after, which must
        not happen under a live flusher).
        """
        abandoned: List[Tuple[object, Future, float, Optional[Span]]] = []
        with self._wakeup:
            if not self._closed:
                self._closed = True
                if not drain:
                    abandoned, self._queue = self._queue, []
                self._wakeup.notify_all()
        for entry in abandoned:
            _fail_future(entry[1], RuntimeError("scheduler closed"))
        self._thread.join(timeout)
        if not self._thread.is_alive():
            return
        # Wedged runner: the drain will never finish.  Resolve every
        # pending future with an error; _run_batch's guarded result
        # delivery makes a late runner completion harmless.
        with self._wakeup:
            pending = self._queue + self._inflight
            self._queue = []
        error = RuntimeError(
            "scheduler closed with a batch still in flight "
            f"(runner did not finish within {timeout}s)"
        )
        for entry in pending:
            _fail_future(entry[1], error)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (queued plus in-flight)."""
        with self._lock:
            return len(self._queue) + len(self._inflight)

    def snapshot(self) -> Dict[str, float]:
        """Flush counters plus the live queue depth (``/stats`` export)."""
        data = self.stats.snapshot()
        data["queue_depth"] = self.queue_depth
        return data

    # ------------------------------------------------------------------
    # flusher side
    # ------------------------------------------------------------------

    def _flush_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return  # closed and drained
                if not self._closed:
                    # Wait for the batch to fill, but never keep the
                    # oldest request waiting past its deadline.
                    deadline = self._queue[0][2] + self.max_wait
                    while (
                        len(self._queue) < self.max_batch
                        and not self._closed
                        and time.monotonic() < deadline
                    ):
                        self._wakeup.wait(deadline - time.monotonic())
                # Re-check closed: a close() arriving mid-wait is a
                # drain flush, not a timeout.
                if len(self._queue) >= self.max_batch:
                    reason = "full"
                elif self._closed:
                    reason = "drain"
                elif self.max_wait == 0:
                    reason = "immediate"
                else:
                    reason = "timeout"
                batch = self._queue[: self.max_batch]
                del self._queue[: len(batch)]
                self._inflight = batch
            if batch:
                # close(drain=False) can empty the queue while the
                # flusher is mid-wait; don't run (or count) a phantom
                # zero-size batch.
                self._run_batch(batch, reason)
            with self._lock:
                self._inflight = []

    def _run_batch(
        self, batch: List[Tuple[object, Future, float, Optional[Span]]], reason: str
    ) -> None:
        now = time.monotonic()
        wait_seconds = sum(now - entry[2] for entry in batch)
        self.stats.record_flush(len(batch), reason, wait_seconds)
        if self._flush_observer is not None:
            try:
                self._flush_observer(len(batch), reason, wait_seconds)
            except Exception:  # noqa: BLE001 - metrics must never kill us
                pass
        tracer = get_tracer()
        request_ids: List[str] = []
        if tracer.enabled:
            # Each request's queue wait joins the trace under the span
            # that submitted it (the HTTP handler), even though it is
            # measured here on the flusher thread.
            for entry in batch:
                tracer.emit(
                    "scheduler.queue_wait",
                    duration=now - entry[2],
                    parent=entry[3],
                    route=self.route,
                    reason=reason,
                )
                ctx = entry[3]
                if (
                    ctx is not None
                    and ctx.request_id
                    and ctx.request_id not in request_ids
                ):
                    request_ids.append(ctx.request_id)
        try:
            # A batch serving exactly one request inherits its id, so
            # that request's trace reaches through the engine spans
            # (encode / prefilter / scoring); a shared batch instead
            # lists every request it coalesced.
            with tracer.span(
                "scheduler.batch",
                request_id=request_ids[0] if len(request_ids) == 1 else None,
                route=self.route,
                size=len(batch),
                reason=reason,
                requests=list(request_ids),
            ):
                results = self._runner([entry[0] for entry in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"runner returned {len(results)} results for a batch "
                    f"of {len(batch)}"
                )
        except BaseException as error:  # noqa: BLE001 - forwarded to futures
            for entry in batch:
                _fail_future(entry[1], error)
            return
        for (_item, future, _t, _ctx), result in zip(batch, results):
            # A timed-out close() may have failed this future already;
            # delivering into a done future would raise InvalidStateError
            # and kill the flusher mid-batch.
            try:
                future.set_result(result)
            except InvalidStateError:
                pass


def _fail_future(future: "Future", error: BaseException) -> None:
    """``set_exception`` tolerating an already-resolved future."""
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass
