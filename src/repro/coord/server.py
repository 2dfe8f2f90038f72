"""HTTP front-end of the coordinator tier (``repro coordinate``).

Speaks the same JSON API as :mod:`repro.service.server` — ``/search``,
``/search_batch``, ``/healthz``, ``/stats``, ``/metrics``,
``/debug/trace``, ``/debug/slow`` — through the same
:class:`~repro.service.httpbase.JsonRequestHandler` skeleton, so a
stock :class:`~repro.service.client.SearchClient` points at a
coordinator without knowing it fronts a fleet.  Differences from a
worker:

* admission control — at most ``max_inflight`` search requests run at
  once; excess requests get **429** with a ``Retry-After`` header
  instead of queueing unboundedly (the coordinator's backlog lives in
  its clients, where it belongs);
* ``/healthz`` reflects the *fleet*: 200 only while every partition
  has at least one healthy worker (and 503 with ``draining: true``
  once shutdown begins, same as a worker);
* ``/metrics`` exports the ``hdoms_coord_`` fan-out/hedge/retry
  families instead of the worker's ``hdoms_service_`` ones.

:func:`serve_coordinate` is the process runner behind the CLI verb: it
optionally materializes the partition plan and spawns a local worker
fleet, builds the coordinator, and hands the loop to
:func:`repro.service.httpbase.run_server` like ``repro serve`` does.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..obs.trace import DEFAULT_CAPACITY, get_tracer
from ..service.httpbase import DrainingHTTPServer, JsonRequestHandler, run_server
from ..service.protocol import DEFAULT_ROUTE, ProtocolError, spectrum_from_payload
from ..store.store import SegmentedStore
from .coordinator import Coordinator, CoordinatorError
from .fleet import LocalWorkerFleet
from .partition import PartitionPlan, materialize_partitions

logger = logging.getLogger("repro.coord")


class CoordinatorService:
    """Glue between the HTTP handlers and the :class:`Coordinator`.

    Owns the admission gate: an atomic in-flight counter, checked and
    bumped under one lock, bounded by ``max_inflight``.  No queue —
    a full coordinator says 429 immediately and lets the client's own
    retry policy provide the backpressure.
    """

    def __init__(self, coordinator: Coordinator, max_inflight: int = 64) -> None:
        if max_inflight < 0:
            raise ValueError(f"max_inflight must be >= 0, got {max_inflight}")
        self.coordinator = coordinator
        self.metrics = coordinator.metrics
        self.max_inflight = max_inflight
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._started = time.time()

    def try_admit(self) -> bool:
        """Reserve one in-flight slot; False when the gate is full."""
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Return one in-flight slot."""
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Search requests currently being scatter-gathered."""
        with self._inflight_lock:
            return self._inflight

    def healthz(self) -> Dict[str, object]:
        """Fleet-level liveness payload (status ok or degraded)."""
        fleet_healthy = self.coordinator.healthy()
        return {
            "status": "ok" if fleet_healthy else "degraded",
            "role": "coordinator",
            "route": DEFAULT_ROUTE,
            "mode": self.coordinator.config.mode,
            "num_partitions": len(self.coordinator.partitions),
            "num_references": sum(
                spec.num_references for spec in self.coordinator.partitions
            ),
            "uptime_seconds": round(time.time() - self._started, 3),
        }

    def stats(self) -> Dict[str, object]:
        """Topology, per-worker health, and the admission gate state."""
        return {
            "role": "coordinator",
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            **self.coordinator.stats(),
        }

    def render_metrics(self) -> str:
        """The Prometheus text payload for ``/metrics``."""
        return self.metrics.render()

    def close(self) -> None:
        """Shut the coordinator (probes, pooled worker connections) down."""
        self.coordinator.close()


class CoordinatorServer(DrainingHTTPServer):
    """:class:`DrainingHTTPServer` carrying the coordinator service."""

    def __init__(self, address, service: CoordinatorService, quiet: bool = True):
        super().__init__(address, CoordinatorRequestHandler)
        self.coordinator_service = service
        self.quiet = quiet


class CoordinatorRequestHandler(JsonRequestHandler):
    """The coordinator tier's part of the JSON API: admission gate, scatter."""

    server_version = "hdoms-coordinator"

    # The fleet could not answer (every replica of some partition
    # failed): unavailable, not a client error.
    error_statuses = {**JsonRequestHandler.error_statuses, CoordinatorError: 503}

    @property
    def backend(self) -> CoordinatorService:
        """The coordinator service owned by the server."""
        return self.server.coordinator_service

    # -- routes --------------------------------------------------------

    def _handle_search(self) -> None:
        route, payload = self._read_search()
        self._scatter(
            "search", route, [payload], lambda merged: {"psm": merged[0], "cached": False}
        )

    def _handle_search_batch(self) -> None:
        route, spectra_payload = self._read_search_batch()
        self._scatter(
            "search_batch", route, spectra_payload, lambda merged: {"psms": merged}
        )

    def _scatter(self, endpoint: str, route: Optional[str], payloads: list, result) -> None:
        """Validate, pass the admission gate, scatter-gather, reply."""
        if route is not None and route != DEFAULT_ROUTE:
            # The coordinator fronts exactly one logical library;
            # accepting an unknown route name and answering from the
            # fleet anyway would be the wrong-library leak the worker's
            # routing layer exists to prevent.
            raise ProtocolError(
                f"coordinator serves only the {DEFAULT_ROUTE!r} route, got {route!r}"
            )
        for entry in payloads:
            spectrum_from_payload(entry)  # validate before admission
        service = self.backend
        service.metrics.requests.inc(endpoint=endpoint)
        if not service.try_admit():
            service.metrics.rejected.inc(endpoint=endpoint)
            self._send_json(
                429,
                {
                    "error": (
                        f"coordinator at capacity "
                        f"({service.max_inflight} in-flight requests)"
                    )
                },
                extra_headers={"Retry-After": "1"},
            )
            return
        request_id = self._request_id()
        started = time.perf_counter()
        try:
            with get_tracer().span(
                "coord.request", request_id=request_id, route=DEFAULT_ROUTE
            ):
                merged = service.coordinator.search_payloads(
                    payloads, request_id=request_id
                )
        finally:
            service.release()
        service.metrics.latency.observe(
            time.perf_counter() - started, endpoint=endpoint
        )
        self._reply_search(
            started, request_id, DEFAULT_ROUTE, endpoint, result(merged), spectra=len(payloads)
        )


def start_coordinator_server(
    service: CoordinatorService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> CoordinatorServer:
    """Bind a :class:`CoordinatorServer` (port 0 = ephemeral)."""
    return CoordinatorServer((host, port), service)


def assign_replicas(
    worker_urls: Sequence[str], num_partitions: int
) -> List[List[str]]:
    """Deal worker URLs round-robin into per-partition replica groups.

    URL ``i`` serves partition ``i % num_partitions``, so with 2
    partitions and 4 workers, partition 0 gets workers 0 and 2 —
    replicas only appear once every partition has a primary.

    Raises:
        ValueError: With fewer URLs than partitions.
    """
    if len(worker_urls) < num_partitions:
        raise ValueError(
            f"{num_partitions} partitions need at least that many workers, "
            f"got {len(worker_urls)}"
        )
    groups: List[List[str]] = [[] for _ in range(num_partitions)]
    for position, url in enumerate(worker_urls):
        groups[position % num_partitions].append(url)
    return groups


def serve_coordinate(
    store_path: Union[str, Path],
    num_partitions: int,
    strategy: str = "rows",
    worker_urls: Optional[Sequence[str]] = None,
    spawn_workers: bool = False,
    host: str = "127.0.0.1",
    port: int = 8347,
    mode: str = "open",
    open_window: float = 500.0,
    standard_tolerance: float = 0.05,
    worker_threads: int = 0,
    max_inflight: int = 64,
    worker_timeout: float = 60.0,
    probe_interval: float = 2.0,
    hedge_floor_ms: float = 20.0,
    startup_timeout: float = 60.0,
    quiet: bool = False,
    drain_timeout: float = 30.0,
    trace: bool = True,
    trace_capacity: int = DEFAULT_CAPACITY,
) -> int:
    """Run the coordinator until SIGINT/SIGTERM; drains before exiting.

    This is the ``repro coordinate`` entry point.  The store at
    ``store_path`` provides the partition plan; workers come from one
    of two places:

    * ``spawn_workers=True`` — materialize the plan's partition
      manifests next to the store and spawn one local ``repro serve``
      per partition (the one-command demo topology);
    * ``worker_urls`` — pre-started worker URLs dealt round-robin into
      per-partition replica groups (see :func:`assign_replicas`); each
      worker must already be serving its partition's store with this
      coordinator's ``mode`` and window widths.

    :func:`~repro.service.httpbase.run_server` owns the loop; shutdown
    closes the HTTP front first (new connections refused, in-flight
    responses finish), then the coordinator (probes and pooled worker
    connections), then any spawned fleet.
    """

    def build():
        fleet: Optional[LocalWorkerFleet] = None
        coordinator: Optional[Coordinator] = None
        try:
            store = SegmentedStore.open(store_path)
            plan = PartitionPlan.build(store, num_partitions, strategy)
            if spawn_workers:
                if worker_urls:
                    raise ValueError(
                        "--spawn-workers and --worker are mutually exclusive"
                    )
                paths = materialize_partitions(store, plan)
                logger.info(
                    "materialized %d partition manifests under %s",
                    len(paths),
                    paths[0].parent,
                )
                fleet = LocalWorkerFleet(
                    [paths[spec.index] for spec in plan.partitions],
                    host=host,
                    mode=mode,
                    open_window=open_window,
                    workers=worker_threads,
                    startup_timeout=startup_timeout,
                )
                groups = [[url] for url in fleet.wait_ready()]
            else:
                if not worker_urls:
                    raise ValueError(
                        "pass --worker URL per partition or --spawn-workers"
                    )
                groups = assign_replicas(list(worker_urls), len(plan))
            coordinator = Coordinator(
                plan.partitions,
                groups,
                mode=mode,
                standard_tolerance=standard_tolerance,
                open_window=open_window,
                worker_timeout=worker_timeout,
                probe_interval=probe_interval,
                hedge_floor_ms=hedge_floor_ms,
            )
            coordinator.wait_ready(timeout=startup_timeout)
            service = CoordinatorService(coordinator, max_inflight=max_inflight)
            server = start_coordinator_server(service, host, port)
        except (ValueError, OSError, CoordinatorError):
            if coordinator is not None:
                coordinator.close()
            if fleet is not None:
                fleet.close()
            raise
        for spec, urls in zip(plan.partitions, groups):
            logger.info(
                "partition p%d: %d references, mass [%.2f, %.2f], workers %s",
                spec.index,
                spec.num_references,
                spec.mass_min,
                spec.mass_max,
                ", ".join(urls),
            )

        def close(timeout: Optional[float] = None) -> None:
            service.close()
            if fleet is not None:
                fleet.close()

        detail = (
            f"coordinator: partitions={len(plan)}, strategy={plan.strategy}, "
            f"mode={mode}, max_inflight={max_inflight}"
        )
        return server, detail, close

    return run_server(
        build,
        name="coordinator",
        quiet=quiet,
        drain_timeout=drain_timeout,
        trace=trace,
        trace_capacity=trace_capacity,
        startup_errors=(ValueError, OSError, CoordinatorError),
    )
