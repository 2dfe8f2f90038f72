"""Long-lived online search service over a persisted library index.

:class:`SearchService` is the engine room: it loads a
:class:`~repro.index.library.LibraryIndex` once, keeps a warm vectorized
searcher behind a :class:`~repro.service.scheduler.MicroBatchScheduler`
(single-spectrum requests coalesce into batch searches), and fronts
everything with a :class:`~repro.service.cache.ResultCache` keyed by
spectrum content digest + configuration fingerprint.  Every flushed
micro-batch reaches the engine as one ``search`` call, so the whole
batch is *encoded* through the fused vectorized
``SpectrumEncoder.encode_batch`` pipeline and *scored* in one fan-out
pass over the bit-packed rows.  Results are
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

Shutdown is graceful: the HTTP loop stops accepting, each route's
scheduler drains queued requests as final batches, and the sharded
pools (when used) are closed with ``close()``/``join()`` rather than
terminated.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ann import AnnConfig
from ..constants import DEFAULT_OPEN_WINDOW_DA, DEFAULT_STANDARD_WINDOW_DA
from ..engine import EngineConfig
from ..index.library import LibraryIndex
from ..index.sharded import ShardedSearcher
from ..store import SegmentedSearcher, SegmentedStore, open_search_source
from ..ms.spectrum import Spectrum
from ..obs.slowlog import DEFAULT_SLOW_MS, SlowQueryLog
from ..obs.trace import DEFAULT_CAPACITY, get_tracer
from ..oms.candidates import WindowConfig
from ..oms.psm import PSM
from ..oms.search import HDSearchConfig
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
    ProtocolError,
    config_fingerprint,
    route_from_payload,
    SCORE_COLUMNS,
    score_request_from_payload,
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
    in-process).  The index decides the engine family — a segmented
    searcher for manifest-backed stores, a sharded one for monolithic
    indexes — and every configuration over the same index rows returns
    bit-identical PSMs.

    An ``engine_config.ann`` (:class:`~repro.ann.AnnConfig`) turns on
    the truncated-precision candidate pass for this route's engine;
    results become approximate (see ``docs/ann-tuning.md``) and the
    cache fingerprint changes, so toggling it can never serve stale
    exact results for approximate requests or vice versa.

    ``max_batch`` / ``max_wait_ms`` are the micro-batcher's knobs, and
    these defaults are their only definition (the scheduler has none,
    the CLI flags defer to them).  ``max_wait_ms=0`` is the
    work-conserving batcher: an idle flusher dispatches at once and
    batches form from back-pressure; a positive value opts into
    lingering that long for a partial batch to fill.
    """

    max_batch: int = 32
    max_wait_ms: float = 0.0
    cache_capacity: int = 1024
    mode: str = "open"
    open_window_da: float = DEFAULT_OPEN_WINDOW_DA
    standard_tolerance_da: float = DEFAULT_STANDARD_WINDOW_DA
    charge_aware: bool = True
    engine_config: Optional[EngineConfig] = None

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
        """Fail fast on an unknown mode."""
        if self.mode not in ("open", "standard", "cascade"):
            raise ValueError(f"unknown mode {self.mode!r}")

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
        A loaded :class:`LibraryIndex` or a path to a persisted one.
        Passing a path enables argument-less :meth:`reload`.
    config:
        :class:`ServiceConfig`; defaults serve open-mode exact search
        with work-conserving micro-batches of up to 32 spectra.
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
        index: Union[LibraryIndex, SegmentedStore, str, Path],
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
            # A directory (or manifest.json) opens as a SegmentedStore;
            # anything else loads as a monolithic .npz index.
            self.index_path: Optional[Path] = Path(index)
            self.index = open_search_source(self.index_path)
        else:
            self.index_path = None
            self.index = index
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
        self.scheduler = MicroBatchScheduler(
            self._run_batch,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            flush_observer=self._route_metrics.flush_event,
            route=route,
        )
        self._stats_lock = threading.Lock()
        self._search_requests = 0
        self._batch_requests = 0
        self._reloads = 0
        self._latency_total = 0.0
        self._latency_count = 0
        self._started = time.time()
        self._closed = False

    # ------------------------------------------------------------------
    # engine construction / batch execution
    # ------------------------------------------------------------------

    def _build_engine(
        self,
        index: Union[LibraryIndex, SegmentedStore],
        config: Optional[ServiceConfig] = None,
    ):
        """Build the warm searcher + the cache fingerprint for it.

        A manifest-backed store gets the segmented searcher, a
        monolithic index the sharded one (a single in-process part by
        default); ``EngineConfig.kind`` may only agree with that.
        """
        config = config or self.config
        windows = config.windows()
        search_config = config.search_config()
        segmented = isinstance(index, SegmentedStore)
        engine = (SegmentedSearcher if segmented else ShardedSearcher)(
            index,
            windows=windows,
            config=search_config,
            engine=config.resolved_engine(),
        )
        if not segmented:
            # The rows are in memory: lay them out before the route
            # takes (or a reload hands over) its first request.  Store
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
        """Score one coalesced batch by position; called by the scheduler thread."""

        def run(engine):
            with get_tracer().span(
                "engine.search", route=self.route, batch=len(batch), engine=self._engine_label
            ):
                return engine.search_aligned(batch)

        psms, fingerprint, generation = self._locked(run)
        return [(psm, fingerprint, generation) for psm in psms]

    def score_batch(self, queries, masses, charges, half_width: float, request_id=None) -> dict:
        """The ``/score`` reply: the engine's ``score_batch`` under the batch lock, no cache."""
        self._route_metrics.observe_request("score")
        with get_tracer().span(
            "service.score", request_id=request_id, route=self.route, queries=len(masses)
        ):
            scored = self._locked(
                lambda engine: engine.score_batch(queries, masses, charges, half_width)
            )
        reply = {name: column.tolist() for name, column in zip(SCORE_COLUMNS, scored[0])}
        reply["records"] = [None if r is None else dataclasses.asdict(r) for r in scored[0][-1]]
        return reply

    def _observe_ann(
        self, snapshot: Optional[Dict[str, int]], generation: int
    ) -> None:
        """Feed one batch's ANN counter delta into the route metrics.

        Engines report *cumulative* counters; Prometheus counters want
        increments.  The last-seen snapshot is keyed by engine
        generation so a reload / ANN toggle (fresh engine, counters back
        at zero) restarts the delta baseline instead of producing
        negative increments.
        """
        if snapshot is None:
            return
        with self._stats_lock:
            if generation != self._ann_generation:
                self._ann_generation = generation
                self._ann_last = {}
            delta = {
                key: value - self._ann_last.get(key, 0)
                for key, value in snapshot.items()
            }
            self._ann_last = dict(snapshot)
        self._route_metrics.observe_ann(delta)

    # ------------------------------------------------------------------
    # request API
    # ------------------------------------------------------------------

    def _lookup(self, spectrum: Spectrum) -> Tuple[str, object]:
        digest = spectrum_digest(spectrum)
        return digest, self.cache.get((self._fingerprint, digest))

    def _finish(
        self, digest: str, outcome: Tuple[Optional[PSM], str, int]
    ) -> Optional[PSM]:
        psm, fingerprint, generation = outcome
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

    def _record_latency(self, started: float) -> None:
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._latency_total += elapsed
            self._latency_count += 1
        self._route_metrics.observe_latency(elapsed)

    def search_one_detailed(
        self, spectrum: Spectrum, request_id: Optional[str] = None
    ) -> Tuple[Optional[PSM], bool]:
        """``(psm_or_none, served_from_cache)`` for one spectrum.

        ``request_id`` (ingress-generated by the HTTP handler, or any
        caller-chosen token) names this request's spans in the trace.
        """
        started = time.perf_counter()
        tracer = get_tracer()
        with self._stats_lock:
            self._search_requests += 1
        self._route_metrics.observe_request("search")
        with tracer.span(
            "service.search", request_id=request_id, route=self.route
        ) as root:
            with tracer.span("service.cache_lookup") as span:
                digest, cached = self._lookup(spectrum)
                span.tag(hit=cached is not MISSING)
            if cached is not MISSING:
                psm = cached
                if psm is not None:
                    psm = dataclasses.replace(
                        psm, query_id=spectrum.identifier
                    )
                root.tag(cached=True)
                self._record_latency(started)
                return psm, True
            with tracer.span("service.await_batch"):
                outcome = self.scheduler.submit(spectrum).result()
            psm = self._finish(digest, outcome)
            root.tag(cached=False)
        self._record_latency(started)
        return psm, False

    def search_one(self, spectrum: Spectrum) -> Optional[PSM]:
        """Search one spectrum (micro-batched + cached under the hood)."""
        return self.search_one_detailed(spectrum)[0]

    def search_many(
        self,
        spectra: Sequence[Spectrum],
        request_id: Optional[str] = None,
    ) -> List[Optional[PSM]]:
        """Search several spectra in one submission.

        The whole list enters the scheduler at once, so it typically
        runs as one vectorized batch.  ``request_id`` names the whole
        submission's spans in the trace.
        """
        started = time.perf_counter()
        tracer = get_tracer()
        with self._stats_lock:
            self._batch_requests += 1
        self._route_metrics.observe_request("search_batch")
        with tracer.span(
            "service.search_batch",
            request_id=request_id,
            route=self.route,
            spectra=len(spectra),
        ) as root:
            results: List[Optional[PSM]] = [None] * len(spectra)
            # Coalesce duplicate spectra within the request: one search
            # per unique digest, fanned back out to every position.
            misses: Dict[str, List[int]] = {}
            with tracer.span("service.cache_lookup") as span:
                for position, spectrum in enumerate(spectra):
                    digest, cached = self._lookup(spectrum)
                    if cached is not MISSING:
                        if cached is not None:
                            results[position] = dataclasses.replace(
                                cached, query_id=spectrum.identifier
                            )
                        continue
                    misses.setdefault(digest, []).append(position)
                span.tag(misses=len(misses), spectra=len(spectra))
            root.tag(misses=len(misses))
            with tracer.span("service.await_batch"):
                futures = self.scheduler.submit_many(
                    [spectra[positions[0]] for positions in misses.values()]
                )
                outcomes = [future.result() for future in futures]
            for (digest, positions), outcome in zip(misses.items(), outcomes):
                psm = self._finish(digest, outcome)
                for position in positions:
                    results[position] = (
                        dataclasses.replace(
                            psm, query_id=spectra[position].identifier
                        )
                        if psm is not None
                        else None
                    )
        self._record_latency(started)
        return results

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
        with self._stats_lock:
            self._reloads += 1
        self._route_metrics.observe_reload()
        old_engine.close()

    def reload(self, index_path: Union[str, Path, None] = None) -> str:
        """Hot-swap the index (see :meth:`_swap_engine`); returns its summary."""
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
        new_index = open_search_source(path)
        old_index = self.index

        def install() -> None:
            self.index = new_index
            self.index_path = path

        built = self._build_engine(new_index)
        self._swap_engine(built, install, "reload")
        if isinstance(old_index, SegmentedStore) and old_index is not new_index:
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
            RuntimeError: If the service is closed or the in-flight
                batch does not finish within ``ENGINE_SWAP_TIMEOUT``.
        """
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
        """Liveness payload: index summary, engine label, search config."""
        provenance = self.index.provenance()
        return {
            "status": "ok",
            "route": self.route,
            "index": self.index.summary(),
            "num_references": self.index.num_references,
            "engine": self.engine_name,
            "ann": self.config.resolved_ann() is not None,
            # What a coordinator must agree with before it may merge
            # this route's winners with other workers'.
            "mode": self.config.mode,
            "open_window_da": self.config.open_window_da,
            "standard_tolerance_da": self.config.standard_tolerance_da,
            "encoding": {
                key: provenance[key]
                for key in ("space", "binning", "preprocessing", "format_version")
            },
            "uptime_seconds": round(time.time() - self._started, 3),
        }

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
        """Counters for ``/stats``: requests, latency, cache, engine."""
        with self._stats_lock:
            requests = {
                "search": self._search_requests,
                "search_batch": self._batch_requests,
                "reloads": self._reloads,
            }
            latency = {
                "count": self._latency_count,
                "total_ms": round(1000.0 * self._latency_total, 3),
                "mean_ms": round(
                    1000.0 * self._latency_total / self._latency_count, 3
                )
                if self._latency_count
                else None,
            }
        return {
            "route": self.route,
            "requests": requests,
            "latency": latency,
            "cache": self.cache.stats(),
            "scheduler": self.scheduler.snapshot(),
            "engine": {
                "name": self.engine_name,
                "mode": self.config.mode,
                "num_references": self.index.num_references,
                "max_batch": self.config.max_batch,
                "max_wait_ms": self.config.max_wait_ms,
                "executor": getattr(self._engine, "executor_kind", "inline"),
                "config": self.config.resolved_engine().to_dict(),
                "ann": self._ann_section(),
            },
            "uptime_seconds": round(time.time() - self._started, 3),
        }

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the scheduler, then close the engine (idempotent).

        The order matters: the scheduler drains *first* so queued
        requests are answered by a live engine, and only then is the
        engine's scoring threads closed.  ``timeout`` bounds the drain — a
        wedged engine fails the still-pending futures instead of
        hanging this call (see
        :meth:`MicroBatchScheduler.close <repro.service.scheduler.MicroBatchScheduler.close>`).
        """
        self._closed = True
        # Every step below is idempotent, so close() runs in full on
        # every call: a concurrent second caller also waits for the
        # drain (it must not tear down shared state under a live
        # flusher), and a re-close after a racing reload() swapped in a
        # fresh engine closes *that* engine instead of leaking it.  The
        # engine read takes the *swap* lock (brief pointer swaps only —
        # never held during a search, so a wedged batch cannot block
        # this): a racing reload() either finishes its swap first (we
        # then close the engine it installed) or re-checks _closed
        # under the same lock and aborts, so the engine read here
        # cannot be displaced afterwards.
        self.scheduler.close(drain=True, timeout=timeout)
        with self._swap_lock:
            engine = self._engine
        if hasattr(engine, "close"):
            engine.close()
        if self.index_path is not None and isinstance(self.index, SegmentedStore):
            # The service opened this store itself (path source), so it
            # owns the mmap'd segment cache; caller-provided stores are
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

    def server_close(self) -> None:
        """Close the socket, then drain routes this server itself added."""
        super().server_close()
        if self._implicit_registry:
            # The caller owns only the service it passed in; routes
            # hot-added over /reload exist solely inside the registry
            # this server created, so they are drained and closed here
            # — otherwise their flusher threads and worker pools leak.
            self.registry.close_added_routes(timeout=30.0)


class SearchRequestHandler(JsonRequestHandler):
    """The worker tier's part of the JSON API: registry lookup, ``/reload``."""

    server_version = "hdoms-service"

    ROUTES = {**JsonRequestHandler.ROUTES, ("POST", "/reload"): "_handle_reload",
              ("POST", "/score"): "_handle_score"}

    @property
    def backend(self):
        """The index registry owned by the server."""
        return self.server.registry

    # -- routes --------------------------------------------------------

    def _handle_search(self) -> None:
        route, payload = self._read_search()
        service = self.backend.get(route)
        spectrum = spectrum_from_payload(payload)
        request_id = self._request_id()
        started = time.perf_counter()
        psm, cached = service.search_one_detailed(
            spectrum, request_id=request_id
        )
        self._reply_search(
            started,
            request_id,
            service.route,
            "search",
            {"psm": psm.to_dict() if psm is not None else None, "cached": cached},
            cached=cached,
        )

    def _handle_search_batch(self) -> None:
        route, spectra_payload = self._read_search_batch()
        service = self.backend.get(route)
        spectra = [spectrum_from_payload(entry) for entry in spectra_payload]
        request_id = self._request_id()
        started = time.perf_counter()
        psms = service.search_many(spectra, request_id=request_id)
        self._reply_search(
            started,
            request_id,
            service.route,
            "search_batch",
            {"psms": [psm.to_dict() if psm is not None else None for psm in psms]},
            spectra=len(spectra),
        )

    def _handle_score(self) -> None:
        payload = self._read_json()
        service = self.backend.get(route_from_payload(payload))
        request_id, started = self._request_id(), time.perf_counter()
        batch = score_request_from_payload(payload, service.index.dim)
        reply = service.score_batch(*batch, request_id=request_id)
        self._reply_search(
            started, request_id, service.route, "score", reply, spectra=len(batch[1])
        )

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
                raise ProtocolError(
                    '"ann" is mutually exclusive with "index" and "remove"'
                )
            service = self.backend.get(route)
            try:
                label = service.set_ann(ann_flag)
            except RuntimeError as error:
                raise ProtocolError(str(error)) from None
            self._send_json(
                200,
                {
                    "status": "ok",
                    "route": service.route,
                    "ann": ann_flag,
                    "engine": label,
                    "routes": self.backend.route_names(),
                },
            )
            return
        if remove:
            if index_path is not None:
                raise ProtocolError(
                    '"remove" and "index" are mutually exclusive'
                )
            if route is None:
                raise ProtocolError('"remove" requires a "route"')
            try:
                self.backend.remove_route(route)
            except ValueError as error:
                raise ProtocolError(str(error)) from None
            self._send_json(
                200,
                {
                    "status": "ok",
                    "removed": route,
                    "routes": self.backend.route_names(),
                },
            )
            return
        try:
            service = self.backend.reload_route(route, index_path)
        except (ValueError, OSError) as error:
            raise ProtocolError(str(error)) from None
        self._send_json(
            200,
            {
                "status": "ok",
                "route": service.route,
                "index": service.index.summary(),
                "num_references": service.index.num_references,
                "routes": self.backend.route_names(),
            },
        )


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
    ``drain_timeout`` a wedged engine's pending futures are failed so
    the process still exits.  ``slow_ms`` is the ``/debug/slow``
    recording threshold.
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
            logger.info(
                "route %s%s: %s",
                name,
                marker,
                registry.get(name).index.summary(),
            )
        service_config = registry.get().config
        detail = (
            f"max_batch={service_config.max_batch}, "
            f"max_wait_ms={service_config.max_wait_ms}, "
            f"slow_ms={slow_ms}, trace={trace}"
        )
        return server, detail, registry.close

    return run_server(
        build,
        name="service",
        quiet=quiet,
        drain_timeout=drain_timeout,
        trace=trace,
        trace_capacity=trace_capacity,
    )
