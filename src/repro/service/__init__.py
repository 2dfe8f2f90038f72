"""Online open-modification search service (the ``repro serve`` stack).

The build-once/search-many workflow of :mod:`repro.index` stops one
step short of the ROADMAP's production target: every CLI invocation
still pays process start-up, index load, and worker warm-up.  This
subpackage keeps all of that hot in a long-lived process and serves
concurrent clients over a stdlib HTTP JSON API:

* :class:`~repro.service.scheduler.MicroBatchScheduler` — dynamic
  work-conserving micro-batching with no thread of its own;
  single-spectrum requests arriving while the engine is busy coalesce
  into one vectorized batch search of up to ``MAX_BATCH`` spectra, run
  on the thread of one of the waiting requests;
* :class:`~repro.service.cache.ResultCache` — LRU result cache keyed
  by spectrum content digest + configuration fingerprint;
* :class:`~repro.service.registry.IndexRegistry` — multi-index
  routing: several loaded libraries behind one server, each route with
  its own cache and scheduler, hot add/swap/remove per route;
* :class:`~repro.service.metrics.ServiceMetrics` — lock-safe
  Prometheus text export (per-route request counters, cache hit/miss,
  micro-batch, latency, and :mod:`repro.obs` per-stage histograms)
  behind ``/metrics``, with ``/debug/trace`` (Chrome ``trace_event``
  JSON) and ``/debug/slow`` (slow-query ring buffer) alongside;
* :class:`~repro.service.server.SearchService` /
  :class:`~repro.service.server.SearchServer` — the engine room and
  its ``ThreadingHTTPServer`` front (``/search``, ``/search_batch``,
  ``/score``, ``/healthz``, ``/stats``, ``/metrics``, ``/reload``),
  the one front-end of both ``repro serve`` and ``repro coordinate``
  (whose route's engine is the :class:`~repro.coord.Coordinator`);
* :mod:`repro.service.httpbase` — the transport under it: draining
  server, JSON request dispatch and one-segment replies, process
  runner;
* :class:`~repro.service.client.SearchClient` — a thin pooled
  ``http.client`` client returning first-class
  :class:`~repro.oms.psm.PSM` objects, with per-client or per-call
  route selection; also the coordinator's transport to its workers.

Responses are bit-identical to a direct
:class:`~repro.oms.search.HDOmsSearcher` run on the same index and
configuration, independent of request order, concurrency, or batch
composition.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "cache": ["MISSING", "ResultCache"],
        "client": ["SearchClient", "ServiceError"],
        "metrics": [
            "Counter",
            "Histogram",
            "MetricsRegistry",
            "RouteMetrics",
            "STAGE_SPANS",
            "ServiceMetrics",
        ],
        "protocol": [
            "ProtocolError",
            "ROUTE_PATTERN",
            "config_fingerprint",
            "route_from_payload",
            "spectrum_digest",
            "spectrum_from_payload",
            "spectrum_to_payload",
            "validate_route_name",
        ],
        "registry": ["DEFAULT_ROUTE", "IndexRegistry", "UnknownRouteError"],
        "scheduler": ["MicroBatchScheduler"],
        "server": [
            "SearchRequestHandler",
            "SearchServer",
            "SearchService",
            "ServiceConfig",
            "ServiceStartupError",
            "serve",
            "start_server",
        ],
    },
)
