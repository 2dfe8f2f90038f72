"""Dynamic micro-batching: coalesce single-spectrum requests.

The service's hot path is a *vectorized batch search* (one fused
``encode_batch`` pass, then XOR/popcount over packed windows), but
online clients arrive one spectrum at a time.
The :class:`MicroBatchScheduler` bridges the two: ``submit_many``
enqueues spectra and returns one :class:`~concurrent.futures.Future`
each; a single background flusher thread collects the queue into
batches and hands them to the runner callback.

The flusher is **work-conserving**: whenever it is idle and anything is
queued it dispatches the whole queue (up to :data:`MAX_BATCH`) at once,
so a lone client never waits for company that is not coming.  Batches
form from back-pressure instead: the runner executes outside the queue
lock, clients keep enqueuing while a batch is being scored, and the
flusher takes everything that piled up when it comes back.  That is
what lets batches grow exactly when there is load to amortise (the
HyperOMS observation: OMS throughput is batching).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.trace import Span, get_tracer

#: Largest batch handed to the runner; a deeper queue leaves in several.
MAX_BATCH = 32


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
    observer:
        Optional ``observer(waits)`` called once per flushed batch with
        each item's queue wait in seconds (so ``len(waits)`` is the
        batch size).  Used by the service's metrics export; observer
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
        observer: Optional[Callable[[List[float]], None]] = None,
        route: Optional[str] = None,
    ) -> None:
        self._runner = runner
        self._observer = observer
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

    def submit_many(self, items: Sequence[object]) -> List["Future"]:
        """Enqueue requests under one lock; each future resolves after its batch runs.

        The lock and the flusher wake-up are paid once per call, so a
        whole spectrum list (``/search_batch``) enters the queue at once.
        """
        futures: List[Future] = [Future() for _ in items]
        now = time.monotonic()
        ctx = get_tracer().capture()
        with self._wakeup:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            for item, future in zip(items, futures):
                self._queue.append((item, future, now, ctx))
            self._wakeup.notify()
        return futures

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop the flusher once queued requests ran (idempotent, concurrent-safe).

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
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
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
                batch = self._queue[:MAX_BATCH]
                del self._queue[:MAX_BATCH]
                self._inflight = batch
            self._run_batch(batch)
            with self._lock:
                self._inflight = []

    def _run_batch(self, batch: List[Tuple[object, Future, float, Optional[Span]]]) -> None:
        now = time.monotonic()
        waits = [now - entry[2] for entry in batch]
        if self._observer is not None:
            try:
                self._observer(waits)
            except Exception:  # noqa: BLE001 - metrics must never kill us
                pass
        tracer = get_tracer()
        request_ids: List[str] = []
        if tracer.enabled:
            # Each request's queue wait joins the trace under the span
            # that submitted it (the HTTP handler), even though it is
            # measured here on the flusher thread.
            for entry, wait in zip(batch, waits):
                tracer.emit(
                    "scheduler.queue_wait", duration=wait, parent=entry[3], route=self.route
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
