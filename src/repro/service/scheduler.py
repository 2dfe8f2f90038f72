"""Dynamic micro-batching: coalesce single-spectrum requests.

The service's hot path is a *vectorized batch search* (one fused
``encode_batch`` pass, then XOR/popcount over packed windows), but
online clients arrive one spectrum at a time.  The
:class:`MicroBatchScheduler` bridges the two without a thread of its
own (flat combining: Hendler et al., SPAA 2010).  ``run_many`` enqueues
a caller's items; a caller that finds no batch running becomes the
**leader** and runs the oldest queued entries, up to :data:`MAX_BATCH`,
on its own thread.  After each batch the leader hands the lead to the
owner of the oldest entry still queued — waking exactly that thread —
or, with nothing queued, drops it.  A lone client never waits for
company, and batches form from back-pressure: what queues while a batch
is scored leaves together (HyperOMS: OMS throughput is batching).
"""

from __future__ import annotations

import threading
import time
from contextvars import Context
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.trace import Span, get_tracer
from .protocol import UnavailableError

#: Largest batch handed to the runner; a deeper queue leaves in several.
MAX_BATCH = 32


class _Submission:
    """One ``run_many`` call: its results, and whether they are all in.

    Its owner waits on ``wake`` for two separate things: "your items are
    done" (``pending`` reaches 0, or ``error`` is set) and "you lead
    now" (the scheduler's ``_leader`` is this submission).  A submission
    split across batches is partly resolved by another leader's batch,
    and that wake-up must not be read as the lead.
    """

    __slots__ = ("results", "pending", "error", "wake")

    def __init__(self, count: int, lock: threading.Lock) -> None:
        self.results: List[object] = [None] * count
        self.pending = count
        self.error: Optional[BaseException] = None
        self.wake = threading.Condition(lock)

    def fail(self, error: BaseException) -> None:
        """Fail the whole submission (first error wins) and wake its owner."""
        if self.error is None:
            self.error = error
            self.wake.notify()


#: (item, submission, position in it, enqueue_monotonic, submitter's span).
_Entry = Tuple[object, _Submission, int, float, Optional[Span]]


class MicroBatchScheduler:
    """Queue single requests, run them in batches on the callers' threads.

    Parameters
    ----------
    runner:
        ``runner(items) -> results`` where ``items`` is the list of
        queued objects in arrival order and ``results`` is a
        same-length sequence; ``results[i]`` answers ``items[i]``.  A
        runner exception fails every submission in the batch (callers
        see the error, the scheduler survives).
    observer:
        Optional ``observer(waits)`` called once per batch with each
        item's queue wait in seconds (so ``len(waits)`` is the batch
        size).  Used by the service's metrics export; observer
        exceptions are swallowed so instrumentation can never fail a
        batch.
    route:
        Optional route label stamped onto the scheduler's trace spans
        (``scheduler.batch`` / ``scheduler.queue_wait``), so per-stage
        histograms attribute batch time to the right route.
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
        #: Queued entries, oldest first; a running batch is the prefix
        #: it was cut from, removed once the batch is settled.
        self._queue: List[_Entry] = []
        self._lock = threading.Lock()
        #: Notified when the lead is dropped after close(): the drain is over.
        self._idle = threading.Condition(self._lock)
        #: The submission whose owner runs (or is about to run) the next batch.
        self._leader: Optional[_Submission] = None
        self._closed = False

    def run_many(self, items: Sequence[object]) -> List[object]:
        """Results for ``items``, aligned, once the batches holding them ran.

        The whole list enters the queue under one lock.  The caller runs
        batches while it holds the lead and waits otherwise; an error
        from any batch holding its items is raised here.
        """
        mine = _Submission(len(items), self._lock)
        now = time.monotonic()
        ctx = get_tracer().capture()
        with self._lock:
            if self._closed:
                raise UnavailableError("scheduler is closed")
            self._queue.extend(
                (item, mine, position, now, ctx) for position, item in enumerate(items)
            )
            if self._leader is None:
                self._leader = mine
            while self._leader is mine or (mine.pending and mine.error is None):
                if self._leader is mine:
                    self._lead(mine)
                else:
                    mine.wake.wait()
        if mine.error is not None:
            raise mine.error
        return mine.results

    def close(self, timeout: Optional[float] = None) -> None:
        """Refuse new work, wait until queued requests ran (idempotent, concurrent-safe).

        Every caller waits, since callers close the engine next.  Past
        ``timeout`` seconds (a wedged runner) every submission queued or
        in flight fails with :class:`UnavailableError` and its owner is
        woken — except the leader stuck inside the runner, which
        returns the error once the runner does.
        """
        with self._lock:
            self._closed = True
            if self._idle.wait_for(lambda: self._leader is None, timeout):
                return
            error = UnavailableError(
                "scheduler closed with a batch still in flight "
                f"(runner did not finish within {timeout}s)"
            )
            for entry in self._queue:
                entry[1].fail(error)
            self._queue = []

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (queued plus in-flight)."""
        with self._lock:
            return len(self._queue)

    def _lead(self, mine: _Submission) -> None:
        """Run the oldest queued batch, then hand the lead on (lock held)."""
        batch = self._queue[:MAX_BATCH]
        try:
            if batch:
                self._lock.release()
                try:
                    # A fresh context: the batch span is a root span, not
                    # a child of whichever request happens to lead.
                    results, error = Context().run(self._run_batch, batch), None
                except BaseException as raised:  # noqa: BLE001 - forwarded to callers
                    results, error = None, raised
                finally:
                    self._lock.acquire()
                # A timed-out close() emptied the queue; else the batch
                # is still its prefix (nothing else removes entries).
                del self._queue[: len(batch)]
                self._settle(batch, results, error)
        finally:
            self._leader = self._queue[0][1] if self._queue else None
            if self._leader is None:
                if self._closed:
                    self._idle.notify_all()
            elif self._leader is not mine:
                self._leader.wake.notify()

    def _settle(self, batch: List[_Entry], results, error: Optional[BaseException]) -> None:
        """Deliver one batch's outcome, waking each submission it completed."""
        if error is not None:
            for entry in batch:
                entry[1].fail(error)
            # A failed caller returns at once: its entries still queued
            # must neither run nor make it the next leader.
            self._queue = [entry for entry in self._queue if entry[1].error is None]
            return
        for (_item, owner, position, _t, _ctx), result in zip(batch, results):
            if owner.error is None:  # else a timed-out close() failed it
                owner.results[position] = result
                owner.pending -= 1
                if not owner.pending:
                    owner.wake.notify()

    def _run_batch(self, batch: List[_Entry]) -> Sequence[object]:
        now = time.monotonic()
        waits = [now - entry[3] for entry in batch]
        if self._observer is not None:
            try:
                self._observer(waits)
            except Exception:  # noqa: BLE001 - metrics must never fail a batch
                pass
        tracer = get_tracer()
        request_ids: List[str] = []
        if tracer.enabled:
            # Each request's queue wait joins the trace under the span
            # that submitted it, whichever thread leads the batch.
            for entry, wait in zip(batch, waits):
                ctx = entry[4]
                tracer.emit(
                    "scheduler.queue_wait", duration=wait, parent=ctx, route=self.route
                )
                if (
                    ctx is not None
                    and ctx.request_id
                    and ctx.request_id not in request_ids
                ):
                    request_ids.append(ctx.request_id)
        # A batch serving exactly one request inherits its id, so that
        # request's trace reaches through the engine spans (encode /
        # prefilter / scoring); a shared batch instead lists every
        # request it coalesced.
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
        return results
