"""Long-lived online search service over a persisted library index.

:class:`SearchService` is the engine room: it loads a
:class:`~repro.index.library.LibraryIndex` once, keeps a warm vectorized
searcher behind a :class:`~repro.service.scheduler.MicroBatchScheduler`
(single-spectrum requests coalesce into batch searches), and fronts
everything with a :class:`~repro.service.cache.ResultCache` keyed by
spectrum content digest + configuration fingerprint.  Every
micro-batch (run on the thread of the request that finds the engine
idle) reaches the engine as one ``search`` call, so the whole batch is
*encoded* through the fused ``SpectrumEncoder.encode_batch`` pipeline
and *scored* in one fan-out pass over the bit-packed rows.  Results are
bit-identical to a direct :class:`~repro.oms.search.HDOmsSearcher` run
on the same index and configuration, whatever order or batch the
requests arrive in.

:class:`SearchServer` / :func:`serve` wrap an
:class:`~repro.service.registry.IndexRegistry` — one or many routes,
each a :class:`SearchService` with its own cache and scheduler — in a
stdlib ``ThreadingHTTPServer`` JSON API:

========================  ====  ==========================================
``/search``               POST  one spectrum -> one PSM (or null)
``/search_batch``         POST  many spectra -> aligned PSM list
``/score``                POST  packed query rows -> per-query winners
                                (a coordinator's hop; nothing encoded)
``/healthz``              GET   liveness + per-route index summaries
``/stats``                GET   cache / scheduler / latency counters
``/metrics``              GET   Prometheus text exposition
``/reload``               POST  add / swap / remove one route or toggle
                                its ANN prefilter; others keep serving
                                undisturbed
========================  ====  ==========================================

``/search`` and ``/search_batch`` accept an optional ``route`` field
selecting which loaded library answers; an unknown route is a 404 and
an omitted one falls back to the registry's default route.

``repro coordinate`` serves this same server over a registry of one
route whose engine is the :class:`~repro.coord.coordinator.Coordinator`
(the fan-out core over remote partitions): its requests take the same
validation, reply envelope, slow log and metrics (but no micro-batcher), with
``ServiceConfig.max_inflight`` as the admission gate (429 when full),
no result cache, and ``/reload`` refused (400) because its workers own
the rows.

Shutdown is graceful: the HTTP loop stops accepting, each route's
scheduler drains queued requests as final batches, and only then is
its engine closed.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from ..ann import AnnConfig
from ..constants import DEFAULT_OPEN_WINDOW_DA, DEFAULT_STANDARD_WINDOW_DA
from ..engine import EngineConfig
from ..index.library import LibraryIndex
from ..store import SegmentedSearcher, SegmentedStore
from ..ms.spectrum import Spectrum
from ..obs.slowlog import DEFAULT_SLOW_MS, SlowQueryLog, stage_breakdown
from ..obs.trace import DEFAULT_CAPACITY, get_tracer
from ..oms.candidates import HDSearchConfig, WindowConfig
from ..oms.loop import FanOutSearcher
from ..oms.psm import PSM
from .cache import MISSING, ResultCache
from .httpbase import (
    DrainingHTTPServer,
    JsonRequestHandler,
    ServiceStartupError,
    run_server,
)
from .metrics import RouteMetrics, ServiceMetrics
from .protocol import (
    DEFAULT_ROUTE,
    CapacityError,
    ProtocolError,
    config_fingerprint,
    route_from_payload,
    SCORE_CONTENT_TYPE,
    decode_score_request,
    encode_score_reply,
    spectrum_digest,
    spectrum_from_payload,
)
from .scheduler import MicroBatchScheduler

__all__ = [
    "SearchRequestHandler",
    "SearchServer",
    "SearchService",
    "ServiceConfig",
    "ServiceStartupError",
    "serve",
    "start_server",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one online search service instance.

    Engine construction is configured by ``engine_config`` (an
    :class:`~repro.engine.EngineConfig`, default: one shard scored
    in-process).  Every library is searched by the one
    :class:`~repro.store.SegmentedSearcher`, and every configuration
    over the same index rows returns bit-identical PSMs.

    An ``engine_config.ann`` (:class:`~repro.ann.AnnConfig`) turns on
    the truncated-precision candidate pass for this route's engine;
    results become approximate (see ``docs/ann-tuning.md``) and the
    cache fingerprint changes, so toggling it can never serve stale
    exact results for approximate requests or vice versa.

    ``max_inflight`` is the admission gate: with that many requests of
    a route searching, the next one is answered 429 at once instead of
    queueing.  ``None`` (``repro serve``) admits everything;
    ``repro coordinate`` sets it, so a fleet's backlog waits in its
    clients.
    """

    cache_capacity: int = 1024
    mode: str = "open"
    open_window_da: float = DEFAULT_OPEN_WINDOW_DA
    standard_tolerance_da: float = DEFAULT_STANDARD_WINDOW_DA
    charge_aware: bool = True
    engine_config: Optional[EngineConfig] = None
    max_inflight: Optional[int] = None

    def resolved_engine(self) -> EngineConfig:
        """The :class:`~repro.engine.EngineConfig` this service runs."""
        return self.engine_config or EngineConfig()

    def resolved_ann(self) -> Optional[AnnConfig]:
        """The effective ANN prefilter config, if any."""
        return self.resolved_engine().ann

    def with_ann(self, ann: Optional[AnnConfig]) -> "ServiceConfig":
        """A copy with the engine's ANN config swapped."""
        return dataclasses.replace(
            self, engine_config=self.resolved_engine().replace(ann=ann)
        )

    def __post_init__(self) -> None:
        """Fail fast on an unknown mode or a negative gate."""
        if self.mode not in ("open", "standard", "cascade"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_inflight is not None and self.max_inflight < 0:
            raise ValueError(f"max_inflight must be >= 0, got {self.max_inflight}")

    def windows(self) -> WindowConfig:
        """The precursor-window config the engines search with."""
        return WindowConfig(
            standard_tolerance_da=self.standard_tolerance_da,
            open_window_da=self.open_window_da,
            charge_aware=self.charge_aware,
        )

    def search_config(self) -> HDSearchConfig:
        """The search-stage config (mode + ANN) the engines run with."""
        return HDSearchConfig(mode=self.mode, ann=self.resolved_ann())


#: How long a reload may wait for the in-flight batch before giving up
#: (the normal wait is one batch's search; only a wedged engine ever
#: approaches this).
ENGINE_SWAP_TIMEOUT = 60.0


class SearchService:
    """Warm index + micro-batching + result cache behind one object.

    Parameters
    ----------
    index:
        A loaded :class:`LibraryIndex`, an open
        :class:`~repro.store.SegmentedStore`, or a path to either (a
        ``.npz`` or a store directory); the service searches it with
        :class:`~repro.store.SegmentedSearcher`.  Passing a path enables
        argument-less :meth:`reload`.  A ready
        engine — the :class:`~repro.coord.coordinator.Coordinator`,
        whose rows live on its workers — is served as it is: it
        reports its own health and topology, it cannot be reloaded, and
        it searches on each request's own thread (see :meth:`_search`).
    config:
        :class:`ServiceConfig`; defaults serve open-mode exact search
        through the work-conserving micro-batcher.
    metrics:
        Optional shared :class:`~repro.service.metrics.ServiceMetrics`.
        When several services sit behind one
        :class:`~repro.service.registry.IndexRegistry`, they all
        observe into the same families under their own ``route`` label;
        a standalone service creates a private one.
    route:
        The route label this service reports under (``"default"``).
    """

    def __init__(
        self,
        index: Union[LibraryIndex, SegmentedStore, FanOutSearcher, str, Path],
        config: Optional[ServiceConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
        route: str = DEFAULT_ROUTE,
    ) -> None:
        self.config = config or ServiceConfig()
        self.route = route
        self._owns_metrics = metrics is None
        self.metrics = metrics or ServiceMetrics()
        self._route_metrics: RouteMetrics = self.metrics.for_route(route)
        # Bridge finished tracer spans into the per-stage histogram;
        # idempotent, so routes sharing one ServiceMetrics attach once.
        self.metrics.attach(get_tracer())
        if isinstance(index, (str, Path)):
            # Any library path opens as a store the service owns.
            self.index_path: Optional[Path] = Path(index)
            self.index = SegmentedStore.open(self.index_path)
        else:
            self.index_path = None
            self.index = index
        #: False for a ready engine: nothing here can rebuild it.
        self.reloadable = not isinstance(self.index, FanOutSearcher)
        self._engine_lock = threading.Lock()
        # Serialises cache writes against reload()'s cache clear so a
        # stale result can never be stored after the clear ran.
        self._swap_lock = threading.Lock()
        self._generation = 0
        # Remember the last concrete ANN config so set_ann(True) after a
        # set_ann(False) re-enables the same knobs, not the defaults.
        self._last_ann: Optional[AnnConfig] = self.config.resolved_ann()
        self._ann_generation = -1
        self._ann_last: Dict[str, int] = {}
        self._engine, self._engine_label, self._fingerprint = self._build_engine(
            self.index
        )
        self.cache = ResultCache(
            self.config.cache_capacity,
            observer=self._route_metrics.cache_event,
        )
        self.scheduler: Optional[MicroBatchScheduler] = None
        if self.reloadable:
            self.scheduler = MicroBatchScheduler(
                self._run_batch, observer=self._route_metrics.observe_batch, route=route
            )
        self._stats_lock = threading.Lock()
        self._inflight = 0
        self._started = time.time()
        self._closed = False

    # ------------------------------------------------------------------
    # engine construction / batch execution
    # ------------------------------------------------------------------

    def _build_engine(
        self,
        index: Union[LibraryIndex, SegmentedStore, FanOutSearcher],
        config: Optional[ServiceConfig] = None,
    ):
        """Build the warm searcher + the cache fingerprint for it.

        Every library is searched by :class:`SegmentedSearcher` (one
        in-process part per segment by default); a ready engine is its
        own searcher.
        """
        config = config or self.config
        windows = config.windows()
        search_config = config.search_config()
        if not self.reloadable:
            provenance = {"engine": index.backend_name}
            return index, index.backend_name, config_fingerprint(provenance, windows, search_config)
        engine = SegmentedSearcher(
            index,
            windows=windows,
            config=search_config,
            engine=config.resolved_engine(),
        )
        # Rows already in memory (a .npz) are laid out before the route
        # takes (or a reload hands over) its first request; manifest
        # segments stay lazy, that is their pruning.
        engine.warm()
        fingerprint = config_fingerprint(
            index.provenance(), windows, search_config
        )
        return engine, engine.backend_name, fingerprint

    def _locked(self, run):
        """``(run(engine), fingerprint, generation)`` under the engine lock.

        Fingerprint and generation name the engine that produced the
        result, so cache entries stay consistent across :meth:`reload`
        swaps; its cumulative ANN counters are read while no other batch
        runs, so per-batch deltas are well defined.
        """
        with self._engine_lock:
            fingerprint, generation = self._fingerprint, self._generation
            result = run(self._engine)
            ann_stats = getattr(self._engine, "ann_stats", None)
            ann_snapshot = ann_stats.snapshot() if ann_stats is not None else None
        self._observe_ann(ann_snapshot, generation)
        return result, fingerprint, generation

    def _run_batch(
        self, batch: List[Spectrum]
    ) -> List[Tuple[Optional[PSM], str, int]]:
        """Score one coalesced batch by position; run on the leading request's thread."""

        def run(engine):
            with get_tracer().span(
                "engine.search", route=self.route, batch=len(batch), engine=self._engine_label
            ):
                return engine.search_aligned(batch)

        psms, fingerprint, generation = self._locked(run)
        return [(psm, fingerprint, generation) for psm in psms]

    def _search(
        self, spectra: List[Spectrum], request_id: Optional[str]
    ) -> List[Tuple[Optional[PSM], str, int]]:
        """Search cache misses: through the micro-batcher, or a ready engine here.

        A ready engine (the coordinator) is thread-safe per call and
        never swapped, so each request searches on its own handler
        thread with its own id: concurrent requests overlap their
        worker round trips, and a failing or wedged partition fails or
        stalls only the requests routed to it.
        """
        if self.reloadable:
            with get_tracer().span("service.await_batch"):
                return self.scheduler.run_many(spectra)
        with get_tracer().span(
            "engine.search", route=self.route, batch=len(spectra), engine=self._engine_label
        ):
            psms = self._engine.search_aligned(spectra, request_id=request_id)
        return [(psm, self._fingerprint, self._generation) for psm in psms]

    def score_batch(self, queries, masses, charges, half_width: float, request_id=None) -> Tuple:
        """The engine's ``score_batch`` columns and records, no cache.

        Under the batch lock, except on a ready engine (see :meth:`_search`).
        """
        self._route_metrics.observe_request("score")
        with self._admitted("score"), get_tracer().span(
            "service.score", request_id=request_id, route=self.route, queries=len(masses)
        ):
            if self.reloadable:
                return self._locked(
                    lambda engine: engine.score_batch(queries, masses, charges, half_width)
                )[0]
            return self._engine.score_batch(
                queries, masses, charges, half_width, request_id=request_id
            )

    def _observe_ann(
        self, snapshot: Optional[Dict[str, int]], generation: int
    ) -> None:
        """Feed one batch's ANN counter delta into the route metrics.

        Engines report *cumulative* counters; Prometheus counters want
        increments.  Snapshots are read under the engine lock but
        observed after it, so a ``/score`` thread and a batch leader can
        deliver them out of order: the baseline is the per-key maximum
        seen, and a stale snapshot adds nothing.  It is keyed by engine
        generation so a reload / ANN toggle (fresh engine, counters back
        at zero) restarts it; a swapped-out engine's late snapshot is
        dropped.
        """
        if snapshot is None:
            return
        with self._stats_lock:
            if generation < self._ann_generation:
                return
            if generation > self._ann_generation:
                self._ann_generation = generation
                self._ann_last = {}
            delta = {}
            for key, value in snapshot.items():
                last = self._ann_last.get(key, 0)
                delta[key] = max(value - last, 0)
                self._ann_last[key] = max(value, last)
        self._route_metrics.observe_ann(delta)

    # ------------------------------------------------------------------
    # request API
    # ------------------------------------------------------------------

    def _lookup(self, spectrum: Spectrum) -> Tuple[Optional[str], object]:
        """``(digest, cached)``; a route without a cache skips both (``None``, a miss)."""
        if not self.cache.capacity:
            return None, MISSING
        digest = spectrum_digest(spectrum)
        return digest, self.cache.get((self._fingerprint, digest))

    def _finish(
        self, digest: Union[str, int, None], outcome: Tuple[Optional[PSM], str, int]
    ) -> Optional[PSM]:
        psm, fingerprint, generation = outcome
        if not self.cache.capacity:  # no digest was taken (see _lookup)
            return psm
        # Only cache results computed by the *current* engine: a result
        # from a pre-reload engine arriving after reload() cleared the
        # cache would otherwise be servable forever, even though a
        # rebuilt index at the same path can carry the same fingerprint
        # (provenance describes configuration, not library content).
        # The check and the put must be atomic w.r.t. reload()'s clear,
        # hence the swap lock: without it the generation could pass the
        # check and the put still land after the clear.
        with self._swap_lock:
            if generation == self._generation:
                self.cache.put((fingerprint, digest), psm)
        return psm

    @contextmanager
    def _admitted(self, endpoint: str):
        """Hold one of the ``max_inflight`` slots, or raise :class:`CapacityError`."""
        limit = self.config.max_inflight
        with self._stats_lock:
            admitted = limit is None or self._inflight < limit
            self._inflight += admitted
        if not admitted:
            self._route_metrics.observe_rejected(endpoint)
            raise CapacityError(
                f"route {self.route!r} at capacity ({limit} in-flight requests)"
            )
        try:
            yield
        finally:
            with self._stats_lock:
                self._inflight -= 1

    def _serve(
        self, spectra: Sequence[Spectrum], request_id: Optional[str], endpoint: str
    ) -> Tuple[List[Optional[PSM]], bool]:
        """``(psms, every one served from the cache)``: ``/search`` and ``/search_batch``.

        With a cache, duplicate spectra within the request are
        coalesced: one search per unique digest, fanned back out to
        every position.  Without one, every position is a miss.
        ``request_id`` names the request's spans in the trace.
        """
        started = time.perf_counter()
        tracer = get_tracer()
        self._route_metrics.observe_request(endpoint)
        with self._admitted(endpoint), tracer.span(
            f"service.{endpoint}", request_id=request_id, route=self.route, spectra=len(spectra)
        ) as root:
            results: List[Optional[PSM]] = [None] * len(spectra)
            misses: Dict[Union[str, int], List[int]] = {}
            with tracer.span("service.cache_lookup") as span:
                for position, spectrum in enumerate(spectra):
                    digest, cached = self._lookup(spectrum)
                    if cached is MISSING:
                        misses.setdefault(digest or position, []).append(position)
                    elif cached is not None:
                        results[position] = dataclasses.replace(
                            cached, query_id=spectrum.identifier
                        )
                span.tag(misses=len(misses), spectra=len(spectra))
            root.tag(misses=len(misses), cached=not misses)
            if misses:
                outcomes = self._search(
                    [spectra[positions[0]] for positions in misses.values()], request_id
                )
                for (key, positions), outcome in zip(misses.items(), outcomes):
                    psm = self._finish(key, outcome)
                    for position in positions:
                        if psm is not None:
                            results[position] = dataclasses.replace(
                                psm, query_id=spectra[position].identifier
                            )
        self._route_metrics.observe_latency(time.perf_counter() - started)
        return results, not misses

    def search_one_detailed(
        self, spectrum: Spectrum, request_id: Optional[str] = None
    ) -> Tuple[Optional[PSM], bool]:
        """``(psm_or_none, served_from_cache)`` for one spectrum.

        ``request_id`` (ingress-generated by the HTTP handler, or any
        caller-chosen token) names this request's spans in the trace.
        """
        psms, cached = self._serve([spectrum], request_id, "search")
        return psms[0], cached

    def search_one(self, spectrum: Spectrum) -> Optional[PSM]:
        """Search one spectrum (micro-batched + cached under the hood)."""
        return self.search_one_detailed(spectrum)[0]

    def search_many(
        self, spectra: Sequence[Spectrum], request_id: Optional[str] = None
    ) -> List[Optional[PSM]]:
        """Search several spectra in one submission.

        The whole list enters the scheduler at once, so it typically
        runs as one vectorized batch.  ``request_id`` names the whole
        submission's spans in the trace.
        """
        return self._serve(spectra, request_id, "search_batch")[0]

    def _swap_engine(self, built, install, what: str) -> None:
        """Put a freshly built engine in service; close the one it replaces.

        ``built`` is :meth:`_build_engine`'s result, ``install`` sets
        whatever else changes with the engine (index, config) and runs
        inside the swap.  The engine was built off to the side, so the
        swap waits only for the batch in flight; queued requests are
        never dropped.  The cache is cleared, and the generation bump
        keeps results that were computed on the old engine — but arrive
        at their requester after the clear — from being cached (a
        rebuilt index at the same path can share a fingerprint, so
        clearing alone would not be enough).
        """
        new_engine, new_label, new_fingerprint = built
        # Bounded engine-lock acquire: the swap normally waits only for
        # the batch in flight, but a *wedged* batch holds the lock
        # forever — an unbounded wait here would park the /reload
        # handler thread and hang server_close() at shutdown.
        if not self._engine_lock.acquire(timeout=ENGINE_SWAP_TIMEOUT):
            new_engine.close()
            raise RuntimeError(
                f"{what} timed out waiting for the in-flight batch "
                f"({ENGINE_SWAP_TIMEOUT}s); is the engine wedged?"
            )
        try:
            # The cache clear must be atomic with the swap: a rebuilt
            # index can share the old fingerprint (provenance-equal),
            # and clearing in a later critical section would leave a
            # window where new requests hit pre-reload entries.  The
            # closed re-check also lives under the swap lock — the same
            # lock close() reads the engine under — so either this swap
            # completes first (close() then closes the engine installed
            # here) or close() won and the swap aborts; the engine can
            # never be installed unseen into a closed service.
            with self._swap_lock:
                closed = self._closed
                if not closed:
                    old_engine = self._engine
                    self._engine = new_engine
                    self._engine_label = new_label
                    self._fingerprint = new_fingerprint
                    self._generation += 1
                    install()
                    self.cache.clear()
        finally:
            self._engine_lock.release()
        if closed:
            new_engine.close()
            raise RuntimeError("service is closed")
        self._route_metrics.observe_reload()
        old_engine.close()

    def check_reloadable(self) -> None:
        """Raise ValueError for a ready engine, which nothing here can rebuild."""
        if not self.reloadable:
            raise ValueError(
                f"route {self.route!r} serves {self.engine_name} over its workers' "
                "rows; reload the workers instead"
            )

    def reload(self, index_path: Union[str, Path, None] = None) -> str:
        """Hot-swap the index (see :meth:`_swap_engine`); returns its summary."""
        self.check_reloadable()
        if self._closed:
            # Building a replacement engine for a closed service would
            # leak it (nothing will ever serve from or close it).
            raise RuntimeError("service is closed")
        path = Path(index_path) if index_path is not None else self.index_path
        if path is None:
            raise ValueError(
                "service was built from an in-memory index; "
                "pass index_path to reload"
            )
        new_index = SegmentedStore.open(path)
        # The service closes only a store it opened itself.
        old_index = self.index if self.index_path is not None else None

        def install() -> None:
            self.index = new_index
            self.index_path = path

        built = self._build_engine(new_index)
        self._swap_engine(built, install, "reload")
        if old_index is not None:
            old_index.close()
        logger.info(
            "route %s reloaded from %s (%d references, engine=%s)",
            self.route,
            path,
            new_index.num_references,
            built[1],
        )
        return new_index.summary()

    def set_ann(
        self, enabled: bool, ann: Optional[AnnConfig] = None
    ) -> str:
        """Toggle the ANN prefilter on the live engine; returns its label.

        Re-enabling without an explicit ``ann`` restores the last
        concrete :class:`~repro.ann.AnnConfig` this route ran with (the
        startup config, or whatever a previous ``set_ann`` installed),
        falling back to the defaults if there never was one.  The swap
        is :meth:`reload`'s (:meth:`_swap_engine`), because the cache
        fingerprint changes with the ANN setting.

        Args:
            enabled: Whether the rebuilt engine should prefilter.
            ann: Optional explicit config when enabling.

        Returns:
            The new engine label (e.g. ``"shardedx1+ann"``).

        Raises:
            ValueError: For a ready engine (see :meth:`check_reloadable`).
            RuntimeError: If the service is closed or the in-flight
                batch does not finish within ``ENGINE_SWAP_TIMEOUT``.
        """
        self.check_reloadable()
        if self._closed:
            raise RuntimeError("service is closed")
        target = (ann or self._last_ann or AnnConfig()) if enabled else None
        if target == self.config.resolved_ann():
            return self._engine_label
        new_config = self.config.with_ann(target)

        def install() -> None:
            self.config = new_config
            if target is not None:
                self._last_ann = target

        built = self._build_engine(self.index, config=new_config)
        self._swap_engine(built, install, "ANN toggle")
        logger.info(
            "route %s ANN prefilter %s (engine=%s)",
            self.route,
            "enabled" if enabled else "disabled",
            built[1],
        )
        return built[1]

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def engine_name(self) -> str:
        """Human-readable label of the engine currently serving requests."""
        return self._engine_label

    def healthz(self) -> Dict[str, object]:
        """Liveness payload: index summary, engine label, search config.

        A ready engine reports itself instead of an index (for the
        coordinator: ``degraded`` while a partition has no healthy
        worker, which the handler answers with 503).
        """
        payload: Dict[str, object] = {
            "status": "ok",
            "route": self.route,
            "engine": self.engine_name,
            "ann": self.config.resolved_ann() is not None,
            # What a coordinator must agree with before it may merge
            # this route's winners with other workers'.
            "mode": self.config.mode,
            "open_window_da": self.config.open_window_da,
            "standard_tolerance_da": self.config.standard_tolerance_da,
            "uptime_seconds": round(time.time() - self._started, 3),
        }
        if not self.reloadable:
            payload.update(self.index.health())
            return payload
        provenance = self.index.provenance()
        payload["index"] = self.index.summary()
        payload["num_references"] = self.index.num_references
        payload["encoding"] = {
            key: provenance[key]
            for key in ("space", "binning", "preprocessing", "format_version")
        }
        return payload

    def _ann_section(self) -> Dict[str, object]:
        """The ANN block of :meth:`stats` (present even when disabled)."""
        with self._swap_lock:
            engine = self._engine
        ann_stats = getattr(engine, "ann_stats", None)
        if ann_stats is None:
            return {"enabled": False}
        section: Dict[str, object] = {"enabled": True}
        snapshot = ann_stats.snapshot()
        section.update(snapshot)
        window_rows = snapshot["window_rows"]
        section["candidate_ratio"] = (
            round(snapshot["scored_rows"] / window_rows, 6)
            if window_rows
            else None
        )
        return section

    def stats(self) -> Dict[str, object]:
        """Counters for ``/stats``: requests, latency, gate, cache, engine.

        ``requests``, ``latency``, ``cache`` and ``scheduler`` are views
        of the route's ``/metrics`` families (:meth:`RouteMetrics.stats
        <repro.service.metrics.RouteMetrics.stats>`) plus the live cache
        size and queue depth.  A ready engine adds its own section (the
        coordinator: role and partitions with their workers).
        """
        sections = self._route_metrics.stats()
        return {
            "route": self.route,
            "requests": sections["requests"],
            "latency": sections["latency"],
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "cache": {"capacity": self.cache.capacity, "size": len(self.cache), **sections["cache"]},
            "scheduler": {**sections["scheduler"], "queue_depth": self.scheduler.queue_depth}
            if self.scheduler
            else None,
            "engine": {
                "name": self.engine_name,
                "mode": self.config.mode,
                "num_references": self.index.num_references,
                "executor": getattr(self._engine, "executor_kind", "inline"),
                "config": self.config.resolved_engine().to_dict(),
                "ann": self._ann_section(),
            },
            "uptime_seconds": round(time.time() - self._started, 3),
            **({} if self.reloadable else self.index.stats()),
        }

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the scheduler, then close the engine (idempotent).

        The order matters: the scheduler drains *first* so queued
        requests are answered by a live engine, and only then are the
        engine's scoring threads closed.  ``timeout`` bounds the drain:
        a wedged engine fails the still-pending requests instead of
        hanging this call (see :meth:`MicroBatchScheduler.close
        <repro.service.scheduler.MicroBatchScheduler.close>`).
        """
        self._closed = True
        # Every step below is idempotent, so close() runs in full on
        # every call: a concurrent second caller also waits for the
        # drain (it must not tear down shared state under a running
        # batch), and a re-close after a racing reload() swapped in a
        # fresh engine closes *that* engine instead of leaking it.  The
        # engine read takes the *swap* lock (brief pointer swaps only —
        # never held during a search, so a wedged batch cannot block
        # this): a racing reload() either finishes its swap first (we
        # then close the engine it installed) or re-checks _closed
        # under the same lock and aborts, so the engine read here
        # cannot be displaced afterwards.
        if self.scheduler is not None:
            self.scheduler.close(timeout=timeout)
        with self._swap_lock:
            engine = self._engine
        if hasattr(engine, "close"):
            engine.close()
        if self.index_path is not None:
            # The service opened this store itself (path source), so it
            # owns the mmap'd segment cache; a caller-provided library is
            # the caller's to close.
            self.index.close()
        if self._owns_metrics:
            # Shared (registry-owned) metrics stay attached: sibling
            # routes are still exporting stage histograms through them.
            self.metrics.detach(get_tracer())

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class SearchServer(DrainingHTTPServer):
    """:class:`DrainingHTTPServer` carrying the route registry.

    Accepts either a bare :class:`SearchService` (wrapped into a
    single-route :class:`~repro.service.registry.IndexRegistry`) or a
    pre-built registry serving several libraries.
    """

    def __init__(
        self,
        address,
        service,
        quiet: bool = True,
        slow_ms: float = DEFAULT_SLOW_MS,
    ):
        from .registry import IndexRegistry

        super().__init__(address, SearchRequestHandler)
        self.slowlog = SlowQueryLog(threshold_ms=slow_ms)
        if isinstance(service, SearchService):
            self.registry = IndexRegistry.from_service(service)
            self._implicit_registry = True
        else:
            self.registry = service
            self._implicit_registry = False
        self.quiet = quiet

    def server_close(self, timeout: Optional[float] = None) -> bool:
        """Close the socket, then drain routes this server itself added."""
        drained = super().server_close(timeout)
        if self._implicit_registry:
            # The caller owns only the service it passed in; routes
            # hot-added over /reload exist solely inside the registry
            # this server created, so they are drained and closed here
            # — otherwise their engines and scoring pools leak.
            self.registry.close_added_routes(timeout=30.0)
        return drained


class SearchRequestHandler(JsonRequestHandler):
    """The JSON search API of ``repro serve`` and ``repro coordinate``.

    Each request is answered by one route of the server's
    :class:`~repro.service.registry.IndexRegistry`; a coordinator's
    registry has one route, whose engine is the
    :class:`~repro.coord.coordinator.Coordinator`.
    """

    server_version = "hdoms-service"

    ROUTES = {
        **JsonRequestHandler.ROUTES,
        ("GET", "/healthz"): "_get_healthz",
        ("GET", "/stats"): "_get_stats",
        ("GET", "/metrics"): "_get_metrics",
        ("POST", "/search"): "_handle_search",
        ("POST", "/search_batch"): "_handle_search_batch",
        ("POST", "/score"): "_handle_score",
        ("POST", "/reload"): "_handle_reload",
    }

    # -- read-only endpoints -------------------------------------------

    def _get_healthz(self) -> None:
        if self.server.draining:
            # A draining server still answers in-flight work but must
            # fail its readiness probe immediately, so load balancers
            # and the coordinator's routing table stop sending new
            # traffic before the socket goes away.
            self._send_json(503, {"status": "draining", "draining": True})
            return
        payload = self.server.registry.healthz()
        payload["draining"] = False
        self._send_json(200 if payload["status"] == "ok" else 503, payload)

    def _get_stats(self) -> None:
        self._send_json(200, self.server.registry.stats())

    def _get_metrics(self) -> None:
        text = self.server.registry.render_metrics()
        self._send_text(200, text, "text/plain; version=0.0.4; charset=utf-8")

    # -- searches: body parsers, reply envelope ------------------------

    def _read_search(self) -> Tuple[Optional[str], object]:
        """The ``/search`` body as ``(route or None, spectrum payload)``."""
        payload = self._read_json()
        if isinstance(payload, dict) and "spectrum" in payload:
            return route_from_payload(payload), payload["spectrum"]
        if isinstance(payload, dict) and "route" in payload:
            # The legacy bare-spectrum form has no route slot; silently
            # answering from the default route would be exactly the
            # wrong-library leak the routing layer exists to prevent.
            raise ProtocolError(
                'a routed search must use the wrapped form '
                '{"spectrum": {...}, "route": "<name>"}'
            )
        return None, payload

    def _read_search_batch(self) -> Tuple[Optional[str], List[object]]:
        """The ``/search_batch`` body as ``(route or None, spectrum payloads)``."""
        payload = self._read_json()
        if not isinstance(payload, dict) or "spectra" not in payload:
            raise ProtocolError('body must be {"spectra": [...]}')
        spectra_payload = payload["spectra"]
        if not isinstance(spectra_payload, list):
            raise ProtocolError('"spectra" must be a list')
        return route_from_payload(payload), spectra_payload

    def _reply_search(
        self, started: float, request_id: str, route: str, endpoint: str,
        result: Dict[str, object], **slow_extra: object,
    ) -> None:
        """Send one search reply and offer the request to the slow log.

        ``result`` holds the endpoint's own fields (``psm`` + ``cached``
        or ``psms``); route, request id and elapsed time are appended
        here.  ``slow_extra`` annotates the slow-log record.
        """
        response = {
            **result,
            "route": route,
            "request_id": request_id,
            "elapsed_ms": round(1000.0 * (time.perf_counter() - started), 3),
        }
        with get_tracer().span("service.serialize", request_id=request_id, route=route):
            self._send_json(200, response, request_id=request_id)
        self._observe_slow(started, request_id, route, endpoint, **slow_extra)

    def _observe_slow(self, started: float, request_id, route, endpoint, **slow_extra) -> None:
        """Offer a request answered since ``started`` to the slow log."""
        tracer = get_tracer()
        slowlog = self.server.slowlog
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        stages = None
        if tracer.enabled and elapsed_ms >= slowlog.threshold_ms:
            stages = stage_breakdown(tracer.spans_for(request_id))
        slowlog.observe(
            elapsed_ms, request_id=request_id, route=route, endpoint=endpoint, stages=stages,
            **slow_extra,
        )

    def _handle_search(self) -> None:
        route, payload = self._read_search()
        service = self.server.registry.get(route)
        spectrum = spectrum_from_payload(payload)
        request_id, started = self._request_id(), time.perf_counter()
        psm, cached = service.search_one_detailed(spectrum, request_id=request_id)
        result = {"psm": psm.to_dict() if psm is not None else None, "cached": cached}
        self._reply_search(started, request_id, service.route, "search", result, cached=cached)

    def _handle_search_batch(self) -> None:
        route, spectra_payload = self._read_search_batch()
        service = self.server.registry.get(route)
        spectra = [spectrum_from_payload(entry) for entry in spectra_payload]
        request_id, started = self._request_id(), time.perf_counter()
        psms = service.search_many(spectra, request_id=request_id)
        result = {"psms": [psm.to_dict() if psm is not None else None for psm in psms]}
        self._reply_search(
            started, request_id, service.route, "search_batch", result, spectra=len(spectra)
        )

    def _handle_score(self) -> None:
        body = self._read_body()
        query = dict(parse_qsl(urlsplit(self.path).query, keep_blank_values=True))
        service = self.server.registry.get(route_from_payload(query))
        request_id, started = self._request_id(), time.perf_counter()
        batch = decode_score_request(body, service.index.dim)
        scored = service.score_batch(*batch, request_id=request_id)
        with get_tracer().span("service.serialize", request_id=request_id, route=service.route):
            self._send_body(200, encode_score_reply(*scored), SCORE_CONTENT_TYPE, request_id=request_id)
        self._observe_slow(started, request_id, service.route, "score", spectra=len(batch[1]))

    def _handle_reload(self) -> None:
        payload: object = {}
        if self._content_length() > 0:
            payload = self._read_json()
        if not isinstance(payload, dict):
            # Don't silently reload the old path for a wrong-shaped
            # body the client meant as a new index.
            raise ProtocolError(
                'body must be {} or {"index": "<path>", "route": "<name>", '
                '"remove": bool, "ann": bool}'
            )
        index_path = payload.get("index")
        if index_path is not None and not isinstance(index_path, str):
            raise ProtocolError('"index" must be a string path')
        route = route_from_payload(payload)
        remove = payload.get("remove", False)
        if not isinstance(remove, bool):
            raise ProtocolError('"remove" must be a boolean')
        ann_flag = payload.get("ann")
        if ann_flag is not None and not isinstance(ann_flag, bool):
            raise ProtocolError('"ann" must be a boolean')
        if ann_flag is not None:
            # An ANN toggle rebuilds the engine over the index already
            # loaded on the route; mixing it with an index swap or a
            # route removal would be ambiguous about ordering.
            if index_path is not None or remove:
                raise ProtocolError('"ann" is mutually exclusive with "index" and "remove"')
            service = self.server.registry.get(route)
            try:
                label = service.set_ann(ann_flag)
            except (RuntimeError, ValueError) as error:
                raise ProtocolError(str(error)) from None
            reply = {"route": service.route, "ann": ann_flag, "engine": label}
        elif remove:
            if index_path is not None:
                raise ProtocolError('"remove" and "index" are mutually exclusive')
            if route is None:
                raise ProtocolError('"remove" requires a "route"')
            try:
                self.server.registry.remove_route(route)
            except ValueError as error:
                raise ProtocolError(str(error)) from None
            reply = {"removed": route}
        else:
            try:
                service = self.server.registry.reload_route(route, index_path)
            except (ValueError, OSError) as error:
                raise ProtocolError(str(error)) from None
            reply = {
                "route": service.route,
                "index": service.index.summary(),
                "num_references": service.index.num_references,
            }
        routes = self.server.registry.route_names()
        self._send_json(200, {"status": "ok", **reply, "routes": routes})


def start_server(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    slow_ms: float = DEFAULT_SLOW_MS,
) -> SearchServer:
    """Bind a :class:`SearchServer` (port 0 = ephemeral); caller serves.

    ``service`` may be a single :class:`SearchService` or an
    :class:`~repro.service.registry.IndexRegistry` fronting several.
    ``slow_ms`` is the ``/debug/slow`` recording threshold.
    """
    return SearchServer((host, port), service, slow_ms=slow_ms)


def serve(
    index_path,
    host: str = "127.0.0.1",
    port: int = 8337,
    config: Optional[ServiceConfig] = None,
    quiet: bool = False,
    default_route: Optional[str] = None,
    drain_timeout: float = 30.0,
    slow_ms: float = DEFAULT_SLOW_MS,
    trace: bool = True,
    trace_capacity: int = DEFAULT_CAPACITY,
) -> int:
    """Run the service until SIGINT/SIGTERM; drains before exiting.

    This is the ``repro serve`` entry point.  ``index_path`` accepts a
    single path (served as the ``"default"`` route) or a
    ``{route: path}`` mapping / sequence of pairs for multi-index
    routing.  :func:`~repro.service.httpbase.run_server` owns the loop
    and the shutdown order: stop accepting connections first, then
    drain each route's micro-batch queue (queued requests still get
    real answers), then close the sharded pools gracefully; past
    ``drain_timeout`` a wedged engine's queued requests are failed and
    the process still exits, leaving unanswered only the request whose
    thread is inside the wedged engine.  ``slow_ms`` is the
    ``/debug/slow`` recording threshold.
    """
    from .registry import IndexRegistry

    def build():
        registry = IndexRegistry(
            index_path, default_route=default_route, config=config
        )
        try:
            server = start_server(registry, host, port, slow_ms=slow_ms)
        except OSError:
            registry.close()
            raise
        for name in registry.route_names():
            marker = " (default)" if name == registry.default_route else ""
            logger.info("route %s%s: %s", name, marker, registry.get(name).index.summary())
        return server, f"slow_ms={slow_ms}, trace={trace}", registry.close

    return run_server(
        build, name="service", quiet=quiet, drain_timeout=drain_timeout,
        trace=trace, trace_capacity=trace_capacity,
    )
