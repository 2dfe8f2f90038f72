"""Multi-index routing: one server process, several spectral libraries.

A production deployment rarely fronts a single library: per-organism and
per-instrument libraries coexist, and the expensive part of each — the
loaded :class:`~repro.index.library.LibraryIndex` plus its warm engine —
must stay resident side by side.  :class:`IndexRegistry` owns one
:class:`~repro.service.server.SearchService` per **route name**, which
means every route gets its *own*
:class:`~repro.service.cache.ResultCache` and
:class:`~repro.service.scheduler.MicroBatchScheduler`: a hot route can
neither evict another route's cached results nor stall another route's
micro-batches.

Routing rules:

* requests name a route explicitly (the ``route`` field of the wire
  protocol) or fall back to the registry's **default route**;
* an unknown route raises :class:`UnknownRouteError`, which the HTTP
  layer maps to a 404;
* :meth:`reload_route` swaps (or adds) exactly one route: the new
  index is built off to the side and only that route's engine swap
  waits for its in-flight batch — every other route keeps serving
  undisturbed;
* :meth:`remove_route` detaches a route and closes it gracefully
  (draining its queued requests); the default route cannot be removed.

All routes share one
:class:`~repro.service.metrics.ServiceMetrics`, so the ``/metrics``
endpoint exports per-route counters and histograms from a single
registry no matter how routes come and go.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..index.library import LibraryIndex
from ..obs.trace import get_tracer
from ..oms.loop import FanOutSearcher
from ..store import SegmentedStore
from .metrics import ServiceMetrics
from .protocol import DEFAULT_ROUTE, UnknownRouteError, validate_route_name
from .server import SearchService, ServiceConfig

#: One loadable index source: a path (``.npz`` file or segmented-store
#: directory), a loaded index, an open store, or a ready engine (the
#: coordinator, served as it is).
IndexSource = Union[str, Path, LibraryIndex, SegmentedStore, FanOutSearcher]

#: Anything the registry accepts as "the indexes to serve".
IndexSources = Union[
    IndexSource,
    Mapping[str, IndexSource],
    Sequence[Tuple[str, IndexSource]],
]

#: Drain bound for closes the registry performs on behalf of a live
#: request (/reload remove/swap cleanup): a wedged engine fails its
#: queued requests after this many seconds instead of parking the
#: /reload handler thread forever (the request leading the wedged
#: batch stays inside the engine).
ROUTE_CLOSE_TIMEOUT = 30.0


def normalize_index_sources(indexes: IndexSources) -> "Dict[str, object]":
    """Coerce any accepted spec into an ordered ``{name: source}`` dict.

    A bare path / index becomes the single :data:`DEFAULT_ROUTE` entry,
    preserving the original single-index ``serve()`` signature.
    """
    if isinstance(indexes, Mapping):
        items = list(indexes.items())
    elif isinstance(indexes, (list, tuple)):
        items = [tuple(entry) for entry in indexes]
    else:
        return {DEFAULT_ROUTE: indexes}
    if not items:
        raise ValueError("at least one index route is required")
    out: Dict[str, object] = {}
    for name, source in items:
        validate_route_name(name)
        if name in out:
            raise ValueError(f"duplicate route name {name!r}")
        out[name] = source
    return out


class IndexRegistry:
    """Loads and owns several route-keyed :class:`SearchService`\\ s.

    Parameters
    ----------
    indexes:
        ``{route: index-or-path}`` (also accepts a sequence of pairs, or
        a bare path/index which becomes the ``"default"`` route).
    default_route:
        Route served when a request names none; defaults to the first
        route given.
    config:
        One :class:`ServiceConfig` shared by every route (each route
        still gets its own cache/scheduler *instances*).
    metrics:
        Optional pre-built :class:`ServiceMetrics`; by default the
        registry creates one and threads it through every route.
    """

    def __init__(
        self,
        indexes: IndexSources,
        default_route: Optional[str] = None,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        sources = normalize_index_sources(indexes)
        self._init_state(config, metrics or ServiceMetrics())
        try:
            for name, source in sources.items():
                self._services[name] = SearchService(
                    source, config=config, metrics=self.metrics, route=name
                )
            if default_route is None:
                default_route = next(iter(sources))
            if default_route not in self._services:
                raise ValueError(
                    f"default route {default_route!r} is not among the "
                    f"configured routes {sorted(self._services)}"
                )
        except BaseException:
            # A failure after services were built — a later index not
            # loading, or a bad default_route — must not leak them
            # (engines and their scoring pools), especially for callers that
            # retry construction.
            for service in self._services.values():
                service.close(timeout=ROUTE_CLOSE_TIMEOUT)
            raise
        self.default_route = default_route

    def _init_state(
        self, config: Optional[ServiceConfig], metrics: ServiceMetrics
    ) -> None:
        """The full per-instance field list, shared by both constructors."""
        self.config = config
        self.metrics = metrics
        self._lock = threading.RLock()
        self._services: Dict[str, SearchService] = {}
        self._closed = False
        #: Routes whose lifecycle an outside caller owns (the adopted
        #: service of :meth:`from_service`); :meth:`close_added_routes`
        #: skips them.
        self._externally_owned: frozenset = frozenset()

    @classmethod
    def from_service(
        cls, service: SearchService, name: Optional[str] = None
    ) -> "IndexRegistry":
        """Wrap an already-built service as a single-route registry.

        Keeps the old ``start_server(SearchService(...))`` call sites
        working: the service's own metrics become the registry's, and
        the caller keeps ownership of the service's lifecycle.
        """
        registry = cls.__new__(cls)
        registry._init_state(service.config, service.metrics)
        route = name or service.route
        registry._services[route] = service
        registry._externally_owned = frozenset([route])
        registry.default_route = route
        return registry

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def get(self, route: Optional[str] = None) -> SearchService:
        """The service for ``route`` (``None`` -> default route)."""
        with self._lock:
            name = route if route is not None else self.default_route
            service = self._services.get(name)
            if service is None:
                raise UnknownRouteError(name, list(self._services))
            return service

    def route_names(self) -> List[str]:
        """Sorted names of the currently served routes."""
        with self._lock:
            return sorted(self._services)

    def __contains__(self, route: str) -> bool:
        with self._lock:
            return route in self._services

    def __len__(self) -> int:
        with self._lock:
            return len(self._services)

    # ------------------------------------------------------------------
    # live mutation (the /reload surface)
    # ------------------------------------------------------------------

    def reload_route(
        self,
        route: Optional[str] = None,
        index_path: Union[str, Path, None] = None,
    ) -> SearchService:
        """Swap one route's index (or add a brand-new route).

        An existing route is hot-swapped in place via
        :meth:`SearchService.reload` — its scheduler keeps running, its
        cache is cleared, and only that route's engine swap waits for
        the batch currently in flight.  A route the registry has never
        seen requires ``index_path`` and is built *off the registry
        lock* (index loads take seconds; other routes must keep
        serving), then attached atomically.  Returns the serving
        service.
        """
        name = route if route is not None else self.default_route
        validate_route_name(name)
        with self._lock:
            if self._closed:
                raise RuntimeError("registry is closed")
            service = self._services.get(name)
        if service is not None:
            try:
                service.reload(index_path)
            except RuntimeError:
                # The service was closed under us — by a concurrent
                # remove_route (the route is gone: report 404-shaped)
                # or by close() (shutdown: let the error propagate).
                if name not in self:
                    raise UnknownRouteError(
                        name, self.route_names()
                    ) from None
                raise
            with self._lock:
                detached = self._services.get(name) is not service
            if detached:
                # remove_route won the race after the swap: its close()
                # ran against the old engine, so re-close to release
                # the engine the reload just installed, and tell the
                # caller the route is no longer served.
                service.close(timeout=ROUTE_CLOSE_TIMEOUT)
                raise UnknownRouteError(name, self.route_names())
            return service
        if index_path is None:
            raise UnknownRouteError(name, self.route_names())
        # A coordinator's server fronts its fleet and nothing else.
        self.get().check_reloadable()
        replacement = SearchService(
            Path(index_path),
            config=self.config,
            metrics=self.metrics,
            route=name,
        )
        with self._lock:
            closed = self._closed
            displaced = None if closed else self._services.get(name)
            if not closed:
                self._services[name] = replacement
        if closed:
            # close() won the race while the index was loading; a route
            # attached now would never be drained or closed.
            replacement.close(timeout=ROUTE_CLOSE_TIMEOUT)
            raise RuntimeError("registry is closed")
        if displaced is not None:
            # Two concurrent adds of the same new route: last one wins,
            # the displaced twin drains and closes.
            displaced.close(timeout=ROUTE_CLOSE_TIMEOUT)
        return replacement

    def remove_route(self, route: str) -> None:
        """Detach ``route`` and close it gracefully.

        The removed service drains its queued requests before its
        engine closes; requests already executing against it complete.
        The default route is load-bearing (it answers route-less
        requests) and cannot be removed.
        """
        with self._lock:
            if route == self.default_route:
                raise ValueError(
                    f"cannot remove the default route {route!r}"
                )
            service = self._services.pop(route, None)
        if service is None:
            raise UnknownRouteError(route, self.route_names())
        service.close(timeout=ROUTE_CLOSE_TIMEOUT)

    # ------------------------------------------------------------------
    # aggregation / lifecycle
    # ------------------------------------------------------------------

    def _snapshot(self) -> Dict[str, SearchService]:
        with self._lock:
            return dict(self._services)

    def healthz(self) -> Dict[str, object]:
        """Default route's payload plus a per-route breakdown."""
        services = self._snapshot()
        payload = dict(services[self.default_route].healthz())
        payload["default_route"] = self.default_route
        payload["routes"] = {
            name: service.healthz() for name, service in sorted(services.items())
        }
        return payload

    def stats(self) -> Dict[str, object]:
        """Default route's counters plus a per-route breakdown."""
        services = self._snapshot()
        payload = dict(services[self.default_route].stats())
        payload["default_route"] = self.default_route
        payload["routes"] = {
            name: service.stats() for name, service in sorted(services.items())
        }
        return payload

    def render_metrics(self) -> str:
        """The Prometheus text payload for ``/metrics``."""
        return self.metrics.render()

    def close_added_routes(self, timeout: Optional[float] = None) -> None:
        """Close every route the registry itself created.

        Externally-owned routes (the adopted service of
        :meth:`from_service`) are left untouched.

        This is the shutdown hook for servers built from a bare
        :class:`SearchService`: routes hot-added over ``/reload`` have
        no owner but the implicit registry, so the server closes them
        here while the caller keeps closing its own service.
        """
        with self._lock:
            added = {
                name: service
                for name, service in self._services.items()
                if name not in self._externally_owned
            }
        for service in added.values():
            service.close(timeout=timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Close every route (idempotent); each drains before closing.

        A concurrent second caller closes (and therefore *waits on*)
        the same services rather than returning while the first caller
        is still draining them — ``SearchService.close`` is idempotent
        and blocking, so the per-service calls are safe to repeat and
        every caller returns only once the drain is done.  That
        matters in ``serve()``: its main thread must not report a
        finished shutdown while the routes are still draining.
        """
        with self._lock:
            self._closed = True
            services = dict(self._services)
        for service in services.values():
            service.close(timeout=timeout)
        # The routes share this registry's ServiceMetrics; with all of
        # them closed, its tracer listener has nothing left to export.
        self.metrics.detach(get_tracer())

    def __enter__(self) -> "IndexRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
