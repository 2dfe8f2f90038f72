"""Scale-out coordinator tier: precursor-partitioned scatter-gather.

``repro.coord`` turns one segmented store plus a fleet of stock
``repro serve`` workers into a single search endpoint that is
**bit-identical** to a single-node search:

* :mod:`repro.coord.partition` — split a store's segment manifest into
  N partitions (balanced by rows or grouped by precursor-mass range)
  and materialize each as a zero-copy store directory;
* :mod:`repro.coord.fleet` — spawn/reap local ``repro serve`` workers
  for the one-command demo topology;
* :mod:`repro.coord.coordinator` — the fan-out core over remote
  partitions: encode once, health probing (and the encoding cross-check),
  hedged ``/score`` calls with bounded retry over the pooled
  :class:`~repro.service.client.SearchClient`;
* :mod:`repro.coord.server` — the ``repro coordinate`` process, which
  serves the coordinator as the engine of a stock
  :class:`~repro.service.server.SearchService` behind the same server
  as ``repro serve`` (admission gate, no result cache);
* :mod:`repro.coord.metrics` — the ``hdoms_coord_`` fan-out metric
  families.

See ``docs/scale-out.md`` for topology and tuning guidance.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "coordinator": ["Coordinator", "CoordinatorError"],
        "fleet": ["FleetError", "LocalWorkerFleet"],
        "metrics": ["CoordinatorMetrics"],
        "partition": ["PartitionPlan", "PartitionSpec", "materialize_partitions"],
        "server": ["assign_replicas", "serve_coordinate"],
    },
)
