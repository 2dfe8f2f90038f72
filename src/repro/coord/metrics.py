"""The coordinator's fan-out metric families (scatter, hedges, retries).

What only a fan-out over remote partitions has to count.  Requests,
rejections and latency are the route's
:class:`~repro.service.metrics.ServiceMetrics` families; ``repro
coordinate`` registers these into that same
:class:`~repro.service.metrics.MetricsRegistry`, so one ``/metrics``
renders both.  The ``hdoms_coord_`` prefix tells them apart from the
``hdoms_service_`` families every tier exports.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..service.metrics import LATENCY_BUCKETS, MetricsRegistry

#: Buckets for per-query partition fan-out (how many workers were hit).
FANOUT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


class CoordinatorMetrics:
    """The coordinator's fan-out families, registered once into ``registry``."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        self.scatter = self.registry.counter(
            "hdoms_coord_scatter_total",
            "Sub-queries scattered to workers, by partition.",
            ("partition",),
        )
        self.skipped = self.registry.counter(
            "hdoms_coord_skipped_total",
            "Per-query partition skips from precursor-range routing.",
            ("partition",),
        )
        self.retries = self.registry.counter(
            "hdoms_coord_retries_total",
            "Failed worker calls retried on a sibling replica.",
            ("partition",),
        )
        self.hedges = self.registry.counter(
            "hdoms_coord_hedges_total",
            "Hedged requests fired after the p99-derived deadline.",
            ("partition",),
        )
        self.hedge_wins = self.registry.counter(
            "hdoms_coord_hedge_wins_total",
            "Hedged requests that finished before the primary.",
            ("partition",),
        )
        self.worker_errors = self.registry.counter(
            "hdoms_coord_worker_errors_total",
            "Worker call failures (transport or HTTP error), by worker.",
            ("worker",),
        )
        self.fanout = self.registry.histogram(
            "hdoms_coord_fanout_partitions",
            "Partitions consulted per query after range routing.",
            (),
            buckets=FANOUT_BUCKETS,
        )
        self.worker_latency = self.registry.histogram(
            "hdoms_coord_worker_latency_seconds",
            "Latency of individual worker calls, by partition.",
            ("partition",),
            buckets=LATENCY_BUCKETS,
        )
