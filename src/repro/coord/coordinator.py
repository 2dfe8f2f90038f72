"""Scatter-gather coordinator over precursor-partitioned workers.

:class:`Coordinator` fronts a fleet of ``repro serve`` workers, each
serving one partition of a :class:`~repro.coord.partition.PartitionPlan`
(optionally replicated).  Per query it:

1. **routes** — computes the precursor window ``[mass - hw, mass + hw]``
   and scatters only to partitions whose mass hull intersects it (a
   superset of the worker's own exact per-segment pruning, so skipping
   never changes results);
2. **calls** — per partition, picks replicas healthy-first in
   round-robin order, fires the primary, hedges to a sibling when the
   call exceeds a p99-derived deadline, and retries once on the next
   replica after a failure;
3. **merges** — combines per-worker winners with the exact global rule
   every engine applies (max score, ties to lowest reference neutral
   mass, then lowest global row), using the PSM merge fields
   (``reference_mass``, ``library_position``) carried on the wire and
   :meth:`PartitionSpec.to_global` for the row mapping.

Because per-row scores are independent of batch composition and JSON
round-trips floats exactly, the merged output is **bit-identical** to a
single-node search over the unpartitioned library.

Worker calls go through the same pooled blocking
:class:`~repro.service.client.SearchClient` every other caller uses,
each on a thread of the target replica's own small pool — a wedged
worker can exhaust only its own threads.  The scatter, the hedge timer
and the merge run on the calling thread, so the public
``search_payloads`` / ``wait_ready`` / ``close`` facade is plain
blocking, thread-safe code that the ThreadingHTTPServer front-end in
:mod:`repro.coord.server` calls straight into.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.trace import get_tracer
from ..service.client import SearchClient
from ..service.protocol import spectrum_from_payload
from .metrics import CoordinatorMetrics
from .partition import PartitionSpec

logger = logging.getLogger("repro.coord")

#: Hedge deadline used until a partition has enough latency samples.
DEFAULT_HEDGE_SECONDS = 1.0

#: Latency samples required before the p99 deadline kicks in.
MIN_HEDGE_SAMPLES = 16

#: Per-partition latency samples retained for the hedge deadline.
LATENCY_WINDOW = 256

#: Calls one replica can have on the wire at once (the size of its
#: thread pool); further calls to it queue behind them.
MAX_CALLS_PER_WORKER = 32

#: Socket timeout of a health probe (never above ``worker_timeout``).
PROBE_TIMEOUT = 5.0


class CoordinatorError(RuntimeError):
    """A partition could not be served by any of its replicas."""


def merge_psm_payloads(
    entries: Sequence[Tuple[Optional[dict], PartitionSpec]],
) -> Optional[dict]:
    """Merge per-partition winner payloads with the global engine rule.

    ``entries`` pairs each consulted partition's PSM payload (or None)
    with its :class:`PartitionSpec`.  The winner is chosen by max
    score, ties to lowest reference neutral mass, then lowest *global*
    library row — exactly ``np.lexsort((positions, masses, -scores))``
    restricted to the per-partition winners, which equals the
    single-node winner because each worker already applied the same
    rule to its subset.

    Cascade composition: a ``mode == "standard"`` candidate means the
    single-node standard pass would have matched, so open-pass
    candidates from other partitions are excluded before merging.

    The returned payload is a copy with ``library_position`` rewritten
    from worker-local to global row numbering.

    Raises:
        CoordinatorError: When a worker's PSM lacks the merge fields
            (an old worker version that cannot be merged exactly).
    """
    candidates: List[Tuple[float, float, int, dict]] = []
    for payload, spec in entries:
        if payload is None:
            continue
        mass = payload.get("reference_mass")
        position = payload.get("library_position")
        if mass is None or position is None:
            raise CoordinatorError(
                f"worker PSM for partition p{spec.index} is missing the "
                "merge fields (reference_mass/library_position); upgrade "
                "the worker — exact cross-worker merging is impossible "
                "without them"
            )
        candidates.append(
            (
                float(payload["score"]),
                float(mass),
                spec.to_global(int(position)),
                payload,
            )
        )
    if not candidates:
        return None
    if any(c[3].get("mode") == "standard" for c in candidates):
        candidates = [c for c in candidates if c[3].get("mode") == "standard"]
    best = min(candidates, key=lambda c: (-c[0], c[1], c[2]))
    winner = dict(best[3])
    winner["library_position"] = best[2]
    return winner


class WorkerHandle:
    """One worker replica: its URL, clients, call threads and probed health."""

    def __init__(self, url: str, partition: int, timeout: float) -> None:
        self.url = url.rstrip("/")
        self.partition = partition
        self.client = SearchClient(self.url, timeout=timeout)
        self.probe_client = SearchClient(
            self.url, timeout=min(PROBE_TIMEOUT, timeout)
        )
        # Per replica, not shared: calls parked on a wedged worker can
        # use up only that worker's threads.
        self.pool = ThreadPoolExecutor(
            max_workers=MAX_CALLS_PER_WORKER,
            thread_name_prefix=f"coord-p{partition}",
        )
        self.healthy = False
        self.last_error: Optional[str] = None
        self._warned_mismatch = False

    def close(self) -> None:
        """Drop queued calls; hang up, so a call parked on the wire fails now."""
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.client.close()
        self.probe_client.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "healthy" if self.healthy else "unhealthy"
        return f"WorkerHandle(p{self.partition}, {self.url}, {state})"


class _PartitionCall:
    """One partition's share of a scatter while it is being gathered."""

    def __init__(
        self,
        spec: PartitionSpec,
        indices: List[int],
        payloads: List[dict],
        replicas: List[WorkerHandle],
    ) -> None:
        self.spec = spec
        self.indices = indices  # positions of the routed queries in the batch
        self.payloads = payloads
        self.queue = replicas  # replicas not fired yet, preferred first
        self.inflight: Dict[Future, WorkerHandle] = {}
        self.hedge: Optional[Future] = None  # the one hedged call, once fired
        self.hedge_at = 0.0  # monotonic time the running call is hedged at
        self.errors: List[str] = []
        self.reply: Optional[dict] = None  # the winning replica's answer


class Coordinator:
    """Scatter-gather engine over the worker fleet (blocking, thread-safe).

    Args:
        partitions: The plan's :class:`PartitionSpec` list, in order.
        worker_urls: Per-partition replica URL lists, aligned to
            ``partitions``; every partition needs at least one URL.
        mode: The workers' search mode (``open``/``standard``/
            ``cascade``) — determines the routing half-width.
        standard_tolerance: Standard-window half-width in Dalton.
        open_window: Open-window half-width in Dalton.
        metrics: Shared metric schema (a fresh one by default).
        worker_timeout: Socket timeout of worker calls in seconds.
        probe_interval: Seconds between health-probe rounds.
        hedge_floor_ms: Lower bound on the hedge deadline.
    """

    def __init__(
        self,
        partitions: Sequence[PartitionSpec],
        worker_urls: Sequence[Sequence[str]],
        mode: str = "open",
        standard_tolerance: float = 0.05,
        open_window: float = 500.0,
        metrics: Optional[CoordinatorMetrics] = None,
        worker_timeout: float = 60.0,
        probe_interval: float = 2.0,
        hedge_floor_ms: float = 20.0,
    ) -> None:
        if len(partitions) != len(worker_urls):
            raise ValueError(
                f"{len(partitions)} partitions but {len(worker_urls)} "
                "worker groups"
            )
        for spec, urls in zip(partitions, worker_urls):
            if not urls:
                raise ValueError(f"partition p{spec.index} has no workers")
        self.partitions = list(partitions)
        self.mode = mode
        self.standard_tolerance = float(standard_tolerance)
        self.open_window = float(open_window)
        self.metrics = metrics or CoordinatorMetrics()
        self.worker_timeout = float(worker_timeout)
        self.probe_interval = float(probe_interval)
        self.hedge_floor = float(hedge_floor_ms) / 1000.0
        self._workers: List[List[WorkerHandle]] = [
            [WorkerHandle(url, spec.index, self.worker_timeout) for url in urls]
            for spec, urls in zip(partitions, worker_urls)
        ]
        # Guards the round-robin cursors and the latency windows, which
        # every searching thread and every call thread touches.
        self._lock = threading.Lock()
        self._round_robin = [0] * len(self.partitions)
        self._latencies: List[List[float]] = [[] for _ in self.partitions]
        self._stop = threading.Event()
        self._prober = threading.Thread(
            target=self._probe_loop, name="coordinator-prober", daemon=True
        )
        self._prober.start()

    def close(self) -> None:
        """Stop probing and hang up on every worker (idempotent).

        Calls still on the wire fail immediately; searches blocked on
        them end in :class:`CoordinatorError`.
        """
        self._stop.set()
        for group in self._workers:
            for handle in group:
                handle.close()
        self._prober.join(timeout=PROBE_TIMEOUT + 5.0)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start(self, handle: WorkerHandle, function, *args) -> Future:
        """Run ``function(handle, *args)`` on one of the replica's threads."""
        try:
            return handle.pool.submit(function, handle, *args)
        except RuntimeError:  # the pool was shut down by close()
            raise CoordinatorError("coordinator is closed") from None

    # ------------------------------------------------------------------
    # health probing
    # ------------------------------------------------------------------

    def _probe_loop(self) -> None:
        while True:
            try:
                self._probe_all()
            except CoordinatorError:  # closed under the prober
                return
            if self._stop.wait(self.probe_interval):
                return

    def _probe_all(self) -> None:
        """Probe every replica once, in parallel on their own threads."""
        futures = [
            self._start(handle, self._probe, spec)
            for spec, group in zip(self.partitions, self._workers)
            for handle in group
        ]
        _, late = wait(futures, timeout=PROBE_TIMEOUT + 1.0)
        for future in late:
            # Still queued behind calls parked on a wedged worker; the
            # next round probes again.
            future.cancel()

    def _mismatch(self, body: dict, spec: PartitionSpec) -> Optional[str]:
        """Why a worker's ``/healthz`` rules it out for ``spec``, if it does.

        A worker serving another library slice, or answering another
        search (mode, window widths) than this coordinator routes and
        merges for, would make the merged winners silently incorrect.
        """
        expected = {
            "num_references": spec.num_references,
            "mode": self.mode,
            "open_window_da": self.open_window,
            "standard_tolerance_da": self.standard_tolerance,
        }
        wrong = [
            f"{key} {body[key]!r}, partition p{spec.index} expects {value!r}"
            for key, value in expected.items()
            if body.get(key) is not None and body[key] != value
        ]
        return "serves " + "; ".join(wrong) if wrong else None

    def _probe(self, handle: WorkerHandle, spec: PartitionSpec) -> None:
        try:
            # A draining (or, for a nested coordinator, degraded)
            # worker answers 503, which the client raises.
            mismatch = self._mismatch(handle.probe_client.healthz(), spec)
        except Exception as error:  # noqa: BLE001 - probe boundary
            was_healthy = handle.healthy
            handle.healthy = False
            handle.last_error = str(error)
            if was_healthy:
                logger.warning(
                    "worker %s (p%d) went unhealthy: %s",
                    handle.url,
                    handle.partition,
                    error,
                )
            return
        handle.last_error = mismatch
        if mismatch is not None and not handle._warned_mismatch:
            handle._warned_mismatch = True
            logger.warning("worker %s rejected: %s", handle.url, mismatch)
        handle.healthy = mismatch is None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every partition has at least one healthy worker.

        Raises:
            CoordinatorError: When the deadline passes first.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._probe_all()
            missing = {
                spec.index: group
                for spec, group in zip(self.partitions, self._workers)
                if not any(handle.healthy for handle in group)
            }
            if not missing:
                return
            if time.monotonic() >= deadline:
                details = "; ".join(
                    f"p{index}: "
                    + ", ".join(
                        f"{handle.url} ({handle.last_error or 'unprobed'})"
                        for handle in group
                    )
                    for index, group in missing.items()
                )
                raise CoordinatorError(
                    f"partitions {list(missing)} have no healthy worker "
                    f"after {timeout:.0f}s — {details}"
                )
            time.sleep(0.2)

    # ------------------------------------------------------------------
    # scatter-gather
    # ------------------------------------------------------------------

    def _half_width(self) -> float:
        if self.mode == "standard":
            return self.standard_tolerance
        # Open and cascade both route on the open window (a superset of
        # the cascade's standard pass, so routing never misses a row).
        return self.open_window

    def search_payloads(
        self,
        spectra_payloads: Sequence[dict],
        request_id: Optional[str] = None,
    ) -> List[Optional[dict]]:
        """Scatter-gather a batch of spectrum payloads; aligned output.

        Each element of the result is the merged winner PSM payload
        (``library_position`` in *global* rows) or None; the list
        aligns with the input order exactly like a worker's
        ``/search_batch``.  ``request_id`` names this request's spans
        here and, forwarded as ``X-Request-Id``, on every worker called.
        """
        payloads = list(spectra_payloads)
        half_width = self._half_width()
        # One sub-batch per partition, holding only the queries routed
        # to it; worker replies align with the sub-batch order.
        sub_batches: Dict[int, List[int]] = {}
        with get_tracer().span("coord.route", request_id=request_id):
            for query_index, payload in enumerate(payloads):
                mass = spectrum_from_payload(payload).neutral_mass
                fanout = 0
                for spec in self.partitions:
                    if spec.intersects(mass - half_width, mass + half_width):
                        sub_batches.setdefault(spec.index, []).append(query_index)
                        fanout += 1
                    else:
                        self.metrics.skipped.inc(partition=str(spec.index))
                self.metrics.fanout.observe(fanout)
        calls = []
        for partition_index, indices in sorted(sub_batches.items()):
            self.metrics.scatter.inc(
                len(indices), partition=str(partition_index)
            )
            calls.append(
                _PartitionCall(
                    self.partitions[partition_index],
                    indices,
                    [payloads[i] for i in indices],
                    self._replicas_in_order(partition_index),
                )
            )
        self._gather(calls, request_id)
        # Per query, the (winner, partition) pairs of the partitions it
        # was routed to, in partition order.
        entries: List[List[Tuple[Optional[dict], PartitionSpec]]] = [
            [] for _ in payloads
        ]
        for call in calls:
            psms = call.reply.get("psms")
            if not isinstance(psms, list) or len(psms) != len(call.indices):
                raise CoordinatorError(
                    f"partition p{call.spec.index} returned "
                    f"{len(psms) if isinstance(psms, list) else 'no'} PSMs "
                    f"for {len(call.indices)} queries"
                )
            for query_index, psm in zip(call.indices, psms):
                entries[query_index].append((psm, call.spec))
        with get_tracer().span("coord.merge", request_id=request_id):
            return [merge_psm_payloads(routed) for routed in entries]

    # ------------------------------------------------------------------
    # per-partition calls with hedging and bounded retry
    # ------------------------------------------------------------------

    def _replicas_in_order(self, partition_index: int) -> List[WorkerHandle]:
        group = self._workers[partition_index]
        with self._lock:
            start = self._round_robin[partition_index] % len(group)
            self._round_robin[partition_index] += 1
        rotated = group[start:] + group[:start]
        # Stable sort: healthy replicas first, rotation preserved
        # within each health class.
        return sorted(rotated, key=lambda handle: not handle.healthy)

    def _hedge_deadline(self, partition_index: int) -> float:
        with self._lock:
            ranked = sorted(self._latencies[partition_index])
        if len(ranked) < MIN_HEDGE_SAMPLES:
            deadline = DEFAULT_HEDGE_SECONDS
        else:
            deadline = ranked[int(0.99 * (len(ranked) - 1))]
        return max(deadline, self.hedge_floor)

    def _call_worker(
        self,
        handle: WorkerHandle,
        spec: PartitionSpec,
        payloads: List[dict],
        request_id: Optional[str],
    ) -> dict:
        """One ``/search_batch`` round trip; runs on a thread of ``handle``."""
        started = time.perf_counter()
        reply = handle.client.search_batch_raw(payloads, request_id=request_id)
        elapsed = time.perf_counter() - started
        with self._lock:
            samples = self._latencies[spec.index]
            samples.append(elapsed)
            if len(samples) > LATENCY_WINDOW:
                del samples[: len(samples) - LATENCY_WINDOW]
        self.metrics.worker_latency.observe(elapsed, partition=str(spec.index))
        return reply

    def _gather(
        self, calls: List[_PartitionCall], request_id: Optional[str]
    ) -> None:
        """Fill in every call's ``reply``: healthy-first, hedge, retry.

        Each partition's primary replica gets the request first; if it
        exceeds the partition's p99-derived hedge deadline, the same
        request is *also* fired at the next replica (first success
        wins).  A replica that fails outright is retried on the next
        unfired replica.  Every replica is fired at most once per
        partition, so the work is bounded even in a full outage.  The
        calling thread drives all of it with one wait over every call
        in flight.

        Raises:
            CoordinatorError: When every replica of a partition failed.
        """
        owner: Dict[Future, _PartitionCall] = {}

        def fire(call: _PartitionCall) -> Future:
            handle = call.queue.pop(0)
            future = self._start(
                handle, self._call_worker, call.spec, call.payloads, request_id
            )
            call.inflight[future] = handle
            owner[future] = call
            call.hedge_at = time.monotonic() + self._hedge_deadline(call.spec.index)
            return future

        try:
            for call in calls:
                fire(call)
            while owner:
                now = time.monotonic()
                timers = []  # hedge deadlines still ahead
                for call in calls:
                    if not call.inflight or call.hedge is not None or not call.queue:
                        continue
                    if now >= call.hedge_at:
                        # The hedge deadline passed with the call still
                        # running: fire the same request at a sibling.
                        self.metrics.hedges.inc(partition=str(call.spec.index))
                        call.hedge = fire(call)
                    else:
                        timers.append(call.hedge_at)
                done, _ = wait(
                    list(owner),
                    timeout=min(timers) - now if timers else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    call = owner.pop(future, None)
                    if call is None:  # lost to a sibling in this same batch
                        continue
                    handle = call.inflight.pop(future)
                    partition = str(call.spec.index)
                    error = future.exception()
                    if error is None:
                        if future is call.hedge:
                            self.metrics.hedge_wins.inc(partition=partition)
                        call.reply = future.result()
                        # A queued loser never starts; one already on
                        # the wire finishes on its own thread and its
                        # reply is discarded.
                        for loser in call.inflight:
                            loser.cancel()
                            del owner[loser]
                        call.inflight.clear()
                        continue
                    handle.healthy = False
                    handle.last_error = str(error)
                    call.errors.append(f"{handle.url}: {error}")
                    self.metrics.worker_errors.inc(worker=handle.url)
                    if call.inflight:
                        continue  # its hedge is still running
                    if not call.queue:
                        raise CoordinatorError(
                            f"partition p{partition}: every replica failed "
                            f"({'; '.join(call.errors)})"
                        )
                    self.metrics.retries.inc(partition=partition)
                    fire(call)
        finally:
            for future in owner:
                future.cancel()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe topology/health snapshot for ``/stats``."""
        return {
            "mode": self.mode,
            "standard_tolerance": self.standard_tolerance,
            "open_window": self.open_window,
            "partitions": [
                {
                    **spec.to_dict(),
                    "workers": [
                        {
                            "url": handle.url,
                            "healthy": handle.healthy,
                            "last_error": handle.last_error,
                        }
                        for handle in group
                    ],
                }
                for spec, group in zip(self.partitions, self._workers)
            ],
        }

    def healthy(self) -> bool:
        """Whether every partition has at least one healthy worker."""
        return all(
            any(handle.healthy for handle in group)
            for group in self._workers
        )
