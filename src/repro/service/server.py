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

import copy
import dataclasses
import logging
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..ann import AnnConfig
from ..constants import DEFAULT_OPEN_WINDOW_DA, DEFAULT_STANDARD_WINDOW_DA
from ..engine import EngineConfig
from ..index.library import LibraryIndex
from ..index.sharded import ShardedSearcher
from ..store import SegmentedSearcher, SegmentedStore, open_search_source
from ..ms.spectrum import Spectrum
from ..obs.export import chrome_trace
from ..obs.logging import ensure_default_logging
from ..obs.slowlog import DEFAULT_SLOW_MS, SlowQueryLog, stage_breakdown
from ..obs.trace import DEFAULT_CAPACITY, get_tracer
from ..oms.candidates import WindowConfig
from ..oms.psm import PSM
from ..oms.search import HDSearchConfig
from .cache import MISSING, ResultCache
from .httpbase import BodyTooLarge, DrainingHTTPServer, JsonRequestHandler
from .metrics import RouteMetrics, ServiceMetrics
from .protocol import (
    DEFAULT_ROUTE,
    ProtocolError,
    config_fingerprint,
    route_from_payload,
    spectrum_digest,
    spectrum_from_payload,
)
from .scheduler import MicroBatchScheduler

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

    ``ann`` (optional :class:`~repro.ann.AnnConfig`) turns on the
    Hamming-LSH candidate prefilter for this route's engine; results
    become approximate (see ``docs/ann-tuning.md``) and the cache
    fingerprint changes, so toggling it can never serve stale exact
    results for approximate requests or vice versa.

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
    ann: Optional[AnnConfig] = None
    engine_config: Optional[EngineConfig] = None

    def resolved_engine(self) -> EngineConfig:
        """The single :class:`~repro.engine.EngineConfig` this service runs.

        ``engine_config`` (or the default one), with the ``ann`` field
        folded in when the engine config carries none.
        """
        engine = self.engine_config or EngineConfig()
        if engine.ann is None and self.ann is not None:
            return engine.replace(ann=self.ann)
        return engine

    def resolved_ann(self) -> Optional[AnnConfig]:
        """The effective ANN prefilter config (whichever field holds it)."""
        return self.resolved_engine().ann

    def with_ann(self, ann: Optional[AnnConfig]) -> "ServiceConfig":
        """A copy with the ANN config swapped, wherever it lives."""
        if self.engine_config is not None:
            return dataclasses.replace(
                self, ann=None, engine_config=self.engine_config.replace(ann=ann)
            )
        return dataclasses.replace(self, ann=ann)

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


class ServiceStartupError(RuntimeError):
    """The service could not start (bad config / unreadable index).

    Raised by :func:`serve` for failures *before* the server loop so the
    CLI can print a clean usage error, while genuine runtime crashes
    keep their tracebacks.
    """


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

    def _run_batch(
        self, batch: List[Spectrum]
    ) -> List[Tuple[Optional[PSM], str, int]]:
        """Score one coalesced batch; called by the scheduler thread.

        Requests are renamed to unique positional identifiers before the
        batch search (client identifiers may collide across concurrent
        requests) and renamed back on the way out.  Each result carries
        the fingerprint and generation of the engine that produced it,
        so cache entries stay consistent across concurrent
        :meth:`reload` swaps.
        """
        renamed = []
        for position, spectrum in enumerate(batch):
            # Shallow copy, not dataclasses.replace: the peak arrays are
            # shared read-only and re-running __post_init__ validation
            # per request would be pure overhead on the hot path.
            clone = copy.copy(spectrum)
            clone.identifier = str(position)
            renamed.append(clone)
        with self._engine_lock:
            fingerprint = self._fingerprint
            generation = self._generation
            with get_tracer().span(
                "engine.search",
                route=self.route,
                batch=len(renamed),
                engine=self._engine_label,
            ):
                result = self._engine.search(renamed)
            # Cumulative engine counters, captured while no other batch
            # can run: successive snapshots of one generation are
            # monotone, so per-batch deltas are well defined.
            ann_stats = getattr(self._engine, "ann_stats", None)
            ann_snapshot = (
                ann_stats.snapshot() if ann_stats is not None else None
            )
        self._observe_ann(ann_snapshot, generation)
        by_position = {psm.query_id: psm for psm in result.psms}
        out: List[Tuple[Optional[PSM], str, int]] = []
        for position, spectrum in enumerate(batch):
            psm = by_position.get(str(position))
            if psm is not None:
                psm = dataclasses.replace(psm, query_id=spectrum.identifier)
            out.append((psm, fingerprint, generation))
        return out

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

    def reload(self, index_path: Union[str, Path, None] = None) -> str:
        """Hot-swap the index; queued requests are never dropped.

        The replacement index is built off to the side while the old
        engine keeps serving; the swap itself waits only for the batch
        currently in flight.  The cache is cleared, and the generation
        bump keeps results that were computed on the old engine — but
        arrive at their requester after the clear — from being cached
        (a rebuilt index at the same path can share a fingerprint, so
        clearing alone would not be enough).  The old engine is closed
        gracefully.
        """
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
        new_engine, new_label, new_fingerprint = self._build_engine(new_index)
        # Bounded engine-lock acquire: the swap normally waits only for
        # the batch in flight, but a *wedged* batch holds the lock
        # forever — an unbounded wait here would park the /reload
        # handler thread and hang server_close() at shutdown.
        if not self._engine_lock.acquire(timeout=ENGINE_SWAP_TIMEOUT):
            if hasattr(new_engine, "close"):
                new_engine.close()
            raise RuntimeError(
                "reload timed out waiting for the in-flight batch "
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
                if self._closed:
                    aborted_engine = new_engine
                else:
                    aborted_engine = None
                    old_engine = self._engine
                    old_index = self.index
                    self._engine = new_engine
                    self._engine_label = new_label
                    self._fingerprint = new_fingerprint
                    self._generation += 1
                    self.index = new_index
                    self.index_path = path
                    self.cache.clear()
        finally:
            self._engine_lock.release()
        if aborted_engine is not None:
            if hasattr(aborted_engine, "close"):
                aborted_engine.close()
            raise RuntimeError("service is closed")
        with self._stats_lock:
            self._reloads += 1
        self._route_metrics.observe_reload()
        if hasattr(old_engine, "close"):
            old_engine.close()
        if isinstance(old_index, SegmentedStore) and old_index is not new_index:
            old_index.close()
        logger.info(
            "route %s reloaded from %s (%d references, engine=%s)",
            self.route,
            path,
            new_index.num_references,
            new_label,
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
        follows :meth:`reload` exactly — built off to the side, queued
        requests never dropped, cache cleared under the generation bump
        — because the cache fingerprint changes with the ANN setting.

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
        new_config = self.config.with_ann(target)
        if new_config == self.config:
            return self._engine_label
        index = self.index
        new_engine, new_label, new_fingerprint = self._build_engine(
            index, config=new_config
        )
        if not self._engine_lock.acquire(timeout=ENGINE_SWAP_TIMEOUT):
            if hasattr(new_engine, "close"):
                new_engine.close()
            raise RuntimeError(
                "ANN toggle timed out waiting for the in-flight batch "
                f"({ENGINE_SWAP_TIMEOUT}s); is the engine wedged?"
            )
        try:
            with self._swap_lock:
                if self._closed:
                    aborted_engine = new_engine
                else:
                    aborted_engine = None
                    old_engine = self._engine
                    self._engine = new_engine
                    self._engine_label = new_label
                    self._fingerprint = new_fingerprint
                    self._generation += 1
                    self.config = new_config
                    if target is not None:
                        self._last_ann = target
                    self.cache.clear()
        finally:
            self._engine_lock.release()
        if aborted_engine is not None:
            if hasattr(aborted_engine, "close"):
                aborted_engine.close()
            raise RuntimeError("service is closed")
        with self._stats_lock:
            self._reloads += 1
        self._route_metrics.observe_reload()
        if hasattr(old_engine, "close"):
            old_engine.close()
        logger.info(
            "route %s ANN prefilter %s (engine=%s)",
            self.route,
            "enabled" if enabled else "disabled",
            new_label,
        )
        return new_label

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def engine_name(self) -> str:
        """Human-readable label of the engine currently serving requests."""
        return self._engine_label

    def healthz(self) -> Dict[str, object]:
        """Liveness payload: index summary, engine label, ANN flag."""
        return {
            "status": "ok",
            "route": self.route,
            "index": self.index.summary(),
            "num_references": self.index.num_references,
            "engine": self.engine_name,
            "ann": self.config.resolved_ann() is not None,
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
                "arena_bytes": int(getattr(self._engine, "arena_nbytes", 0)),
                "config": self.config.resolved_engine().to_dict(),
                "ann": self._ann_section(),
            },
            "uptime_seconds": round(time.time() - self._started, 3),
        }

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the scheduler, then close the engine (idempotent).

        The order matters: the scheduler drains *first* so queued
        requests are answered by a live engine, and only then is the
        engine's worker pool closed.  ``timeout`` bounds the drain — a
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
        if isinstance(service, SearchService):
            self.registry = IndexRegistry.from_service(service)
            self._implicit_registry = True
        else:
            self.registry = service
            self._implicit_registry = False
        self.quiet = quiet
        #: Ring buffer behind ``/debug/slow``; requests slower than
        #: ``slow_ms`` are recorded with their per-stage breakdown.
        self.slowlog = SlowQueryLog(threshold_ms=slow_ms)

    @property
    def service(self) -> SearchService:
        """The default route's service (single-route back-compat)."""
        return self.registry.get()

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
    """Routes the JSON API onto a :class:`SearchService`."""

    server_version = "hdoms-service"

    def _observe_slow(
        self,
        started: float,
        request_id: str,
        route: str,
        endpoint: str,
        **extra: object,
    ) -> None:
        """Offer one finished request to the server's slow-query log."""
        slowlog = getattr(self.server, "slowlog", None)
        if slowlog is None:
            return
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        stages = None
        tracer = get_tracer()
        if tracer.enabled and elapsed_ms >= slowlog.threshold_ms:
            stages = stage_breakdown(tracer.spans_for(request_id))
        slowlog.observe(
            elapsed_ms,
            request_id=request_id,
            route=route,
            endpoint=endpoint,
            stages=stages,
            **extra,
        )

    @property
    def registry(self):
        """The index registry owned by the server."""
        return self.server.registry

    @property
    def service(self) -> SearchService:
        """Default-route service (single-route back-compat)."""
        return self.server.service

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Read-only endpoints: /healthz, /stats, /metrics, /debug/*."""
        try:
            parsed = urlsplit(self.path)
            if parsed.path == "/healthz":
                if self.server.draining:
                    # A draining server still answers in-flight work but
                    # must fail its readiness probe immediately, so load
                    # balancers and the coordinator's routing table stop
                    # sending new traffic before the socket goes away.
                    self._send_json(
                        503, {"status": "draining", "draining": True}
                    )
                else:
                    payload = self.registry.healthz()
                    payload["draining"] = False
                    self._send_json(200, payload)
            elif parsed.path == "/stats":
                self._send_json(200, self.registry.stats())
            elif parsed.path == "/metrics":
                self._send_text(
                    200,
                    self.registry.render_metrics(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parsed.path == "/debug/slow":
                slowlog = getattr(self.server, "slowlog", None)
                if slowlog is None:
                    self._send_json(404, {"error": "slow-query log not enabled"})
                else:
                    self._send_json(200, slowlog.snapshot())
            elif parsed.path == "/debug/trace":
                params = parse_qs(parsed.query)
                request_id = params.get("request_id", [None])[0]
                self._send_json(
                    200, chrome_trace(get_tracer(), request_id=request_id)
                )
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except Exception as error:  # noqa: BLE001 - boundary
            self._send_json(500, {"error": str(error)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve the mutating endpoints: /search, /search_batch, /reload."""
        from .registry import UnknownRouteError

        try:
            if self.path == "/search":
                self._handle_search()
            elif self.path == "/search_batch":
                self._handle_search_batch()
            elif self.path == "/reload":
                self._handle_reload()
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except BodyTooLarge as error:
            self._send_json(413, {"error": str(error)})
        except UnknownRouteError as error:
            self._send_json(404, {"error": str(error)})
        except ProtocolError as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - boundary
            self._send_json(500, {"error": str(error)})

    def _handle_search(self) -> None:
        payload = self._read_json()
        route = None
        if isinstance(payload, dict) and "spectrum" in payload:
            route = route_from_payload(payload)
            payload = payload["spectrum"]
        elif isinstance(payload, dict) and "route" in payload:
            # The legacy bare-spectrum form has no route slot; silently
            # answering from the default route would be exactly the
            # wrong-library leak the routing layer exists to prevent.
            raise ProtocolError(
                'a routed search must use the wrapped form '
                '{"spectrum": {...}, "route": "<name>"}'
            )
        service = self.registry.get(route)
        spectrum = spectrum_from_payload(payload)
        request_id = self._request_id()
        started = time.perf_counter()
        psm, cached = service.search_one_detailed(
            spectrum, request_id=request_id
        )
        response = {
            "psm": psm.to_dict() if psm is not None else None,
            "cached": cached,
            "route": service.route,
            "request_id": request_id,
            "elapsed_ms": round(
                1000.0 * (time.perf_counter() - started), 3
            ),
        }
        with get_tracer().span(
            "service.serialize", request_id=request_id, route=service.route
        ):
            self._send_json(200, response, request_id=request_id)
        self._observe_slow(
            started, request_id, service.route, "search", cached=cached
        )

    def _handle_search_batch(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict) or "spectra" not in payload:
            raise ProtocolError('body must be {"spectra": [...]}')
        spectra_payload = payload["spectra"]
        if not isinstance(spectra_payload, list):
            raise ProtocolError('"spectra" must be a list')
        service = self.registry.get(route_from_payload(payload))
        spectra = [spectrum_from_payload(entry) for entry in spectra_payload]
        request_id = self._request_id()
        started = time.perf_counter()
        psms = service.search_many(spectra, request_id=request_id)
        response = {
            "psms": [
                psm.to_dict() if psm is not None else None for psm in psms
            ],
            "route": service.route,
            "request_id": request_id,
            "elapsed_ms": round(
                1000.0 * (time.perf_counter() - started), 3
            ),
        }
        with get_tracer().span(
            "service.serialize", request_id=request_id, route=service.route
        ):
            self._send_json(200, response, request_id=request_id)
        self._observe_slow(
            started,
            request_id,
            service.route,
            "search_batch",
            spectra=len(spectra),
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
            service = self.registry.get(route)
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
                    "routes": self.registry.route_names(),
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
                self.registry.remove_route(route)
            except ValueError as error:
                raise ProtocolError(str(error)) from None
            self._send_json(
                200,
                {
                    "status": "ok",
                    "removed": route,
                    "routes": self.registry.route_names(),
                },
            )
            return
        try:
            service = self.registry.reload_route(route, index_path)
        except (ValueError, OSError) as error:
            raise ProtocolError(str(error)) from None
        self._send_json(
            200,
            {
                "status": "ok",
                "route": service.route,
                "index": service.index.summary(),
                "num_references": service.index.num_references,
                "routes": self.registry.route_names(),
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
    routing.  Shutdown order matters: stop accepting connections first,
    then drain each route's micro-batch queue (queued requests still
    get real answers), then close the sharded pools gracefully.
    ``drain_timeout`` bounds the whole shutdown against a wedged
    engine: if joining the in-flight handlers takes longer, their
    pending futures are failed (clients get errors, not silence) so
    the process still exits.

    ``trace`` enables the process tracer for the server's lifetime
    (restored on exit), sizing its ring buffer to ``trace_capacity``
    spans; ``slow_ms`` is the ``/debug/slow`` recording threshold.
    """
    from .registry import IndexRegistry

    ensure_default_logging()
    tracer = get_tracer()
    tracer_was_enabled = tracer.enabled
    if trace:
        tracer.enable(trace_capacity)
    try:
        registry = IndexRegistry(
            index_path, default_route=default_route, config=config
        )
        server = start_server(registry, host, port, slow_ms=slow_ms)
    except (ValueError, OSError) as error:
        if trace and not tracer_was_enabled:
            tracer.disable()
        raise ServiceStartupError(str(error)) from error
    server.quiet = quiet

    def _shutdown(signum, frame) -> None:
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    installed = []
    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            installed.append((signum, signal.signal(signum, _shutdown)))
        except ValueError:  # not the main thread
            pass
    bound_host, bound_port = server.server_address[:2]
    for name in registry.route_names():
        marker = " (default)" if name == registry.default_route else ""
        logger.info(
            "route %s%s: %s", name, marker, registry.get(name).index.summary()
        )
    service_config = registry.get().config
    # The "listening on http://host:port" phrasing is load-bearing:
    # supervisors (and the fault-injection tests) parse the bound port
    # out of this exact line.
    logger.info(
        "listening on http://%s:%s (max_batch=%s, max_wait_ms=%s, "
        "slow_ms=%s, trace=%s)",
        bound_host,
        bound_port,
        service_config.max_batch,
        service_config.max_wait_ms,
        slow_ms,
        trace,
    )
    try:
        server.serve_forever()
    finally:
        # server_close() joins the non-daemon handler threads, which
        # block in future.result() until their batches drain — the
        # graceful path.  A wedged engine would park them forever, so a
        # watchdog force-closes the registry (failing the pending
        # futures, which unblocks the handlers) if the join outlives
        # drain_timeout.
        watchdog = threading.Timer(
            drain_timeout, registry.close, kwargs={"timeout": 5.0}
        )
        watchdog.daemon = True
        watchdog.start()
        try:
            server.server_close()
        finally:
            watchdog.cancel()
            registry.close(timeout=drain_timeout)
        for signum, previous in installed:
            signal.signal(signum, previous)
        if trace and not tracer_was_enabled:
            tracer.disable()
        logger.info("service drained and closed")
    return 0
