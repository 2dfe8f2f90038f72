"""Scatter-gather coordinator over precursor-partitioned workers.

:class:`Coordinator` fronts a fleet of ``repro serve`` workers, each
serving one partition of a :class:`~repro.coord.partition.PartitionPlan`
(optionally replicated).  It is a row-layout provider of the fan-out
core, :class:`~repro.oms.loop.FanOutSearcher`, whose parts are the
partitions and happen to be remote: the core preprocesses and encodes
each query **once**, here, runs the cascade, routes each query to the
partitions whose mass hull meets its window, merges their winners with
its one ``np.lexsort`` rule and builds the PSMs.  What remoteness adds:

1. **calls** — a partition's share of a pass is one ``/score`` round
   trip carrying packed query rows; replicas are tried healthy-first in
   round-robin order, a call past a p99-derived deadline is hedged to a
   sibling, and a failed one is retried on the next replica;
2. **rows** — a worker answers in its own row numbering, mapped back
   through :meth:`PartitionSpec.to_global`, with the winners' records;
3. **the encoding** — the encoder and preprocessing are those workers
   report on ``/healthz``, and the probe rejects a replica reporting
   any other.

Per-row scores do not depend on batch composition and the ``/score``
frames carry floats as their IEEE bytes, so the output is
**bit-identical** to a single-node search.  Worker calls run on the pooled blocking
:class:`~repro.service.client.SearchClient`, each on a thread of the
target replica's own pool — a wedged worker can exhaust only its own
threads; everything else runs on the calling thread.  ``repro
coordinate`` serves it as the engine of a stock
:class:`~repro.service.server.SearchService`, which calls
``search_aligned`` on each request's own thread (no micro-batcher:
one request's failing partition fails only that request) and
``health`` / ``stats`` for ``/healthz`` and ``/stats``.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import EngineConfig
from ..hdc.encoder import SpectrumEncoder
from ..hdc.spaces import HDSpace
from ..index.library import INDEX_FORMAT_VERSION
from ..obs.trace import get_tracer
from ..ms.spectrum import Spectrum
from ..oms.candidates import HDSearchConfig, WindowConfig
from ..oms.loop import FanOutSearcher
from ..oms.psm import PSM
from ..service.client import SearchClient
from ..service.protocol import UnavailableError, spectrum_from_payload
from ..store.manifest import StoreManifest
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


class CoordinatorError(UnavailableError):
    """A partition could not be served by any of its replicas (HTTP 503)."""


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


class Coordinator(FanOutSearcher):
    """Scatter-gather engine over the worker fleet (blocking, thread-safe).

    Args:
        partitions: The plan's :class:`PartitionSpec` list, in order.
        worker_urls: Per-partition replica URL lists, aligned to
            ``partitions``; every partition needs at least one URL.
        mode: The workers' search mode (``open``/``standard``/
            ``cascade``) — the passes this coordinator runs.
        standard_tolerance: Standard-window half-width in Dalton.
        open_window: Open-window half-width in Dalton.
        metrics: The fan-out metric families (a fresh registry by
            default; ``repro coordinate`` registers them into its
            route's, so one ``/metrics`` renders both sets).
        worker_timeout: Socket timeout of worker calls in seconds.
        probe_interval: Seconds between health-probe rounds.
        hedge_floor_ms: Lower bound on the hedge deadline.
    """

    part_name = "coord"

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
        # No encoder until a worker reports its encoding (_check_encoding).
        self._init_core(
            encoder=None, preprocessing=None, config=HDSearchConfig(mode=mode),
            windows=WindowConfig(float(standard_tolerance), float(open_window)),
            engine=EngineConfig(), num_parts=len(partitions), label=f"coordx{len(partitions)}",
        )
        self._hulls = np.array([[spec.mass_min, spec.mass_max] for spec in self.partitions])
        self._encoding: Optional[dict] = None
        # Per searching thread: the forwarded request id and the records
        # of the pass's winners.
        self._pass = threading.local()
        self.metrics = metrics or CoordinatorMetrics()
        self.worker_timeout = float(worker_timeout)
        self.probe_interval = float(probe_interval)
        self.hedge_floor = float(hedge_floor_ms) / 1000.0
        self._workers: List[List[WorkerHandle]] = [
            [WorkerHandle(url, spec.index, self.worker_timeout) for url in urls]
            for spec, urls in zip(partitions, worker_urls)
        ]
        # Guards the round-robin cursors, the latency windows and the
        # adopted encoding, which searching, call and probe threads touch.
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
        """Probe all replicas at once; the first to pass, in plan order, sets the encoding."""
        probes = [
            (spec, handle, self._start(handle, lambda h: h.probe_client.healthz()))
            for spec, group in zip(self.partitions, self._workers)
            for handle in group
        ]
        wait([future for _, _, future in probes], timeout=PROBE_TIMEOUT + 1.0)
        for spec, handle, future in probes:
            if future.done() and not future.cancelled():
                self._judge(handle, spec, future)
            else:
                # Still queued behind calls parked on a wedged worker;
                # the next round probes again.
                future.cancel()

    def _mismatch(self, body: dict, spec: PartitionSpec) -> Optional[str]:
        """Why a worker's ``/healthz`` rules it out for ``spec``, if it does.

        A worker serving another library slice, another search (mode,
        window widths) or rows encoded otherwise (another seed, say)
        would make the merged winners silently incorrect.
        """
        expected = {
            "num_references": spec.num_references,
            "mode": self.config.mode,
            "open_window_da": self.windows.open_window_da,
            "standard_tolerance_da": self.windows.standard_tolerance_da,
        }
        wrong = [
            f"{key} {body[key]!r}, partition p{spec.index} expects {value!r}"
            for key, value in expected.items()
            if body.get(key) is not None and body[key] != value
        ] or self._check_encoding(body.get("encoding"))
        return "serves " + "; ".join(wrong) if wrong else None

    def _check_encoding(self, encoding: Optional[dict]) -> List[str]:
        """Adopt the first encoding a matching worker reports; name any other.

        A worker on another index format encodes with another codebook
        even under the same configs, so its version must equal this
        build's.
        """
        if not isinstance(encoding, dict):
            return ["no encoding"]
        encoding = dict(encoding)
        version = encoding.pop("format_version", None)
        if version != INDEX_FORMAT_VERSION:
            return [f"index format version {version!r}, this build reads {INDEX_FORMAT_VERSION}"]
        with self._lock:
            if self._encoding is None:
                space, binning, self.preprocessing = StoreManifest(dim=0, **encoding).configs()
                self.encoder = SpectrumEncoder(HDSpace(space), binning)
                self.encoder.space.id_bank  # drawn now, not on a request's critical path
                self._encoding = encoding
            differs = [key for key, value in self._encoding.items() if encoding.get(key) != value]
        return [f"another {'/'.join(differs)} encoding than the fleet"] if differs else []

    def _judge(self, handle: WorkerHandle, spec: PartitionSpec, probe: Future) -> None:
        try:
            # A draining worker answers 503, which the client raises.
            mismatch = self._mismatch(probe.result(), spec)
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
    # the search: the fan-out core over remote partitions
    # ------------------------------------------------------------------

    def _require_encoding(self) -> SpectrumEncoder:
        """The adopted encoder, probing once if none is yet.

        Raises:
            CoordinatorError: When closed, or when no worker has
                reported an acceptable encoding.
        """
        if self._stop.is_set():
            raise CoordinatorError("coordinator is closed")
        if self.encoder is None:  # no probe has adopted an encoding yet
            self._probe_all()
        if self.encoder is None:
            handles = [handle for group in self._workers for handle in group]
            for handle in handles:
                self.metrics.worker_errors.inc(worker=handle.url)
            details = "; ".join(f"{handle.url}: {handle.last_error}" for handle in handles)
            raise CoordinatorError(f"every replica failed or was rejected ({details})")
        return self.encoder

    @contextmanager
    def _forwarding(self, request_id: Optional[str]):
        """Forward ``request_id`` as ``X-Request-Id`` on this thread's worker calls.

        A nested entry without an id (the core's passes calling
        :meth:`score_batch`) keeps the outer one.
        """
        outer = getattr(self._pass, "request_id", None)
        self._pass.request_id = request_id or outer
        try:
            yield
        finally:
            self._pass.request_id = outer

    def search_aligned(
        self, queries: Sequence[Spectrum], request_id: Optional[str] = None
    ) -> List[Optional[PSM]]:
        """The core's aligned search, once a worker's encoding is adopted.

        ``request_id`` names the request on every worker called (sent as
        ``X-Request-Id``).  The call runs on the calling thread, so
        concurrent requests scatter concurrently and fail separately.

        Raises:
            CoordinatorError: See :meth:`_require_encoding`, or when
                every replica of a routed partition failed.
        """
        self._require_encoding()
        with self._forwarding(request_id):
            return super().search_aligned(queries)

    def score_batch(
        self, queries, query_masses, query_charges, half_width: float, request_id: Optional[str] = None
    ) -> Tuple:
        """The core's merged pass over the fleet; ``request_id`` as in :meth:`search_aligned`."""
        with self._forwarding(request_id):
            return super().score_batch(queries, query_masses, query_charges, half_width)

    def search_payloads(self, spectra_payloads: Sequence[dict]) -> List[Optional[dict]]:
        """:meth:`search_aligned` over spectrum payloads, as PSM payloads.

        Each element is the winning PSM payload (``library_position``
        in *global* rows) or None, aligned with the input like a
        worker's ``/search_batch``.
        """
        spectra = [spectrum_from_payload(payload) for payload in spectra_payloads]
        return [psm.to_dict() if psm is not None else None for psm in self.search_aligned(spectra)]

    def _parts_for(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """The core's hull mask over partitions, counted into the metrics."""
        with get_tracer().span("coord.route", queries=len(lows)):
            mask = super()._parts_for(lows, highs)
            for spec, routed in zip(self.partitions, mask.sum(axis=1).tolist()):
                for counter, count in ((self.metrics.scatter, routed),
                                       (self.metrics.skipped, len(lows) - routed)):
                    if count:
                        counter.inc(count, partition=str(spec.index))
            for fanout in mask.sum(axis=0).tolist():
                self.metrics.fanout.observe(fanout)
        return mask

    def _reference(self, position: int):
        """The record a worker's reply carried for global row ``position``."""
        return self._pass.records[position]

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
        self, handle: WorkerHandle, call: SimpleNamespace, request_id: Optional[str]
    ) -> Tuple[float, Tuple, List]:
        """One ``/score`` round trip; runs on a thread of ``handle``.

        Returns ``(wall_seconds, winner columns, records)`` in global
        rows; a row outside the partition fails like a transport error.
        """
        started = time.perf_counter()
        queries, masses, charges, half_width = call.batch
        counts, scores, best_masses, local, records = handle.client.score(
            queries, self.encoder.space.dim, masses, charges, half_width, request_id=request_id
        )
        elapsed = time.perf_counter() - started
        with self._lock:
            samples = self._latencies[call.spec.index]
            samples.append(elapsed)
            if len(samples) > LATENCY_WINDOW:
                del samples[: len(samples) - LATENCY_WINDOW]
        self.metrics.worker_latency.observe(elapsed, partition=str(call.spec.index))
        rows = [call.spec.to_global(row) if row >= 0 else -1 for row in local.tolist()]
        return elapsed, (counts, scores, best_masses, np.array(rows, np.int64)), records

    def _map_parts(
        self, jobs: Sequence[Tuple[int, Tuple]]
    ) -> List[Tuple[float, Tuple]]:
        """One ``/score`` call per routed partition: healthy-first, hedge, retry.

        Each partition's primary replica gets the request first; if it
        exceeds the partition's p99-derived hedge deadline, the same
        request is *also* fired at the next replica (first success
        wins).  A replica that fails outright is retried on the next
        unfired replica.  Every replica is fired at most once per
        partition, so the work is bounded even in a full outage.  The
        calling thread drives all of it with one wait over every call
        in flight, then keeps the replies' records for :meth:`_reference`.

        Raises:
            CoordinatorError: When every replica of a partition failed.
        """
        # One record per call: replicas not fired yet (preferred first),
        # calls in flight, the one hedge once fired, the monotonic time
        # the running call is hedged at, errors so far, the winning reply.
        calls = [
            SimpleNamespace(
                spec=self.partitions[part], batch=batch, queue=self._replicas_in_order(part),
                inflight={}, hedge=None, hedge_at=0.0, errors=[], reply=None,
            )
            for part, batch in jobs
        ]
        request_id = getattr(self._pass, "request_id", None)
        owner: Dict[Future, SimpleNamespace] = {}

        def fire(call: SimpleNamespace) -> Future:
            handle = call.queue.pop(0)
            future = self._start(handle, self._call_worker, call, request_id)
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
        self._pass.records = {
            row: record
            for call in calls
            for row, record in zip(call.reply[1][3].tolist(), call.reply[2])
        }
        return [call.reply[:2] for call in calls]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_references(self) -> int:
        """Library rows over every partition."""
        return sum(spec.num_references for spec in self.partitions)

    @property
    def dim(self) -> int:
        """Hypervector dimension of the adopted encoding (a ``/score`` row's width).

        Raises:
            CoordinatorError: See :meth:`_require_encoding`.
        """
        return self._require_encoding().space.dim

    def health(self) -> dict:
        """The fleet's ``/healthz`` fields: ``degraded`` while a partition has no healthy worker."""
        served = all(any(handle.healthy for handle in group) for group in self._workers)
        return {
            "status": "ok" if served else "degraded",
            "role": "coordinator",
            "num_partitions": len(self.partitions),
            "num_references": self.num_references,
        }

    def stats(self) -> dict:
        """JSON-safe topology/health snapshot for ``/stats``."""
        return {
            "role": "coordinator",
            "mode": self.config.mode,
            "standard_tolerance": self.windows.standard_tolerance_da,
            "open_window": self.windows.open_window_da,
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
