"""The ``repro coordinate`` process: a coordinator behind the stock server.

:func:`serve_coordinate` optionally materializes the partition plan and
spawns a local worker fleet, builds the
:class:`~repro.coord.coordinator.Coordinator`, and serves it as the one
route of a :class:`~repro.service.server.SearchServer` — the server
``repro serve`` runs — so a stock
:class:`~repro.service.client.SearchClient` points at a coordinator
without knowing it fronts a fleet.  What the configuration changes
from a worker's:

* admission control — ``ServiceConfig.max_inflight`` requests search
  at once; one more gets **429** with ``Retry-After: 1`` instead of
  queueing (the fleet's backlog lives in its clients);
* no result cache — a worker's ``/reload`` could not clear it;
* ``/healthz`` reflects the *fleet*: 503 ``degraded`` while a
  partition has no healthy worker;
* ``/metrics`` adds the ``hdoms_coord_`` fan-out families to the
  route's ``hdoms_service_`` ones.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..obs.trace import DEFAULT_CAPACITY
from ..service.httpbase import run_server
from ..service.metrics import ServiceMetrics
from ..service.registry import IndexRegistry
from ..service.server import ServiceConfig, start_server
from ..store.store import SegmentedStore
from .coordinator import Coordinator, CoordinatorError
from .fleet import LocalWorkerFleet
from .partition import PartitionPlan, materialize_partitions

logger = logging.getLogger("repro.coord")


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
    responses finish), then the route (the coordinator's probes and
    pooled worker connections close), then any spawned fleet.
    """

    def build():
        fleet: Optional[LocalWorkerFleet] = None
        coordinator: Optional[Coordinator] = None
        registry: Optional[IndexRegistry] = None
        try:
            config = ServiceConfig(
                mode=mode,
                open_window_da=open_window,
                standard_tolerance_da=standard_tolerance,
                cache_capacity=0,
                max_inflight=max_inflight,
            )
            store = SegmentedStore.open(store_path)
            plan = PartitionPlan.build(store, num_partitions, strategy)
            if spawn_workers:
                if worker_urls:
                    raise ValueError(
                        "--spawn-workers and --worker are mutually exclusive"
                    )
                paths = materialize_partitions(store, plan)
                logger.info(
                    "materialized %d partition manifests under %s", len(paths), paths[0].parent
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
            registry = IndexRegistry(
                coordinator, config=config, metrics=ServiceMetrics(coordinator.metrics.registry)
            )
            server = start_server(registry, host, port)
        except (ValueError, OSError, CoordinatorError):
            # Closing the registry closes the coordinator too; both are idempotent.
            for resource in (registry, coordinator, fleet):
                if resource is not None:
                    resource.close()
            raise
        for spec, urls in zip(plan.partitions, groups):
            logger.info(
                "partition p%d: %d references, mass [%.2f, %.2f], workers %s",
                spec.index, spec.num_references, spec.mass_min, spec.mass_max, ", ".join(urls),
            )

        def close(timeout: Optional[float] = None) -> None:
            registry.close(timeout=timeout)
            if fleet is not None:
                fleet.close()

        detail = (
            f"coordinator: partitions={len(plan)}, strategy={plan.strategy}, "
            f"mode={mode}, max_inflight={max_inflight}"
        )
        return server, detail, close

    return run_server(
        build, name="coordinator", quiet=quiet, drain_timeout=drain_timeout,
        trace=trace, trace_capacity=trace_capacity,
        startup_errors=(ValueError, OSError, CoordinatorError),
    )
