"""Window-pruned search over a :class:`~repro.store.store.SegmentedStore`.

Mirrors :class:`~repro.index.sharded.ShardedSearcher`'s pipeline —
micro-batched encode one stage ahead, exact lexsort winner merge, the
same ANN bookkeeping — but the unit of fan-out is a manifest segment
instead of a row-range shard, and segments are strictly lazy: a
scoring pass computes the batch's precursor-mass interval (widened by
the active window half-width) and only segments whose recorded mass
range intersects it are ever opened.  A skipped segment contributes
zero candidate rows to *every* query in the batch by construction, so
pruning is exact: results are bit-identical to a monolithic search,
``min_candidates`` gating included.

Each opened segment gets a :class:`~repro.exec.scorer.ShardScorer`
built straight from the segment's mmap'd arrays, with positions offset
to global row numbers.  Scoring runs in-process — serially or on a
thread pool over the GIL-releasing kernels — so nothing is ever copied
into shared memory; ``executor="process"`` is accepted for config
compatibility but downgraded to threads, because a process pool would
force every segment open up front, defeating the pruning.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..ann import AnnStats, HammingLSHIndex
from ..engine import EngineConfig
from ..exec.scorer import ShardScorer, resolve_backend, shard_payload
from ..index.library import IndexCompatibilityError, ReferenceRecord
from ..ms.preprocessing import PreprocessingConfig
from ..ms.spectrum import Spectrum
from ..obs.trace import get_tracer
from ..oms.candidates import WindowConfig
from ..oms.loop import MicroBatchSearchMixin
from ..oms.psm import PSM
from ..oms.search import ENCODE_BLOCK_SIZE, HDSearchConfig
from .store import SegmentedStore

logger = logging.getLogger(__name__)


class SegmentedSearcher(MicroBatchSearchMixin):
    """Search a segmented store, opening only the segments a batch needs.

    Parameters
    ----------
    store:
        An opened :class:`SegmentedStore` (or a path to one).
    preprocessing / windows / config / encoder:
        Same semantics as :class:`~repro.index.sharded.ShardedSearcher`.
    engine:
        :class:`~repro.engine.EngineConfig`; ``num_workers`` picks the
        scoring thread count (``0`` = serial, ``None`` = auto up to the
        segment count), ``num_shards`` is ignored (the manifest decides
        the partitioning).
    """

    def __init__(
        self,
        store: Union[SegmentedStore, str, Path],
        preprocessing: Optional[PreprocessingConfig] = None,
        windows: Optional[WindowConfig] = None,
        config: Optional[HDSearchConfig] = None,
        engine: Optional[EngineConfig] = None,
        encoder=None,
    ) -> None:
        # A searcher that opened the store itself owns it (and closes
        # it); a caller-provided store stays the caller's to close.
        self._owns_store = not isinstance(store, SegmentedStore)
        if self._owns_store:
            store = SegmentedStore.open(store)
        engine = engine or EngineConfig()
        if engine.kind not in ("auto", "segmented"):
            raise ValueError(
                f"SegmentedSearcher cannot host engine kind {engine.kind!r}"
            )
        resolve_backend(engine.backend)  # fail fast on bad factories
        config = config or HDSearchConfig()
        if engine.ann is not None and engine.ann != config.ann:
            if config.ann is not None:
                raise ValueError(
                    "conflicting ANN configs: engine.ann disagrees with "
                    "config.ann"
                )
            config = dataclasses.replace(config, ann=engine.ann)
        if config.reference_ber > 0:
            raise ValueError(
                "SegmentedSearcher does not support reference_ber: noise "
                "injection over the full library would force every segment "
                "open, defeating lazy segment pruning"
            )
        if encoder is not None and encoder.space.config != store.space_config:
            raise IndexCompatibilityError(
                "encoder space config disagrees with the store provenance"
            )
        self.store = store
        self.engine = engine
        self.encoder = encoder if encoder is not None else store.make_encoder()
        self.preprocessing = preprocessing or store.preprocessing
        self.windows = windows or WindowConfig()
        self.config = config
        self._backend = engine.backend
        self._backend_label = engine.backend_label
        self._noise_rng = np.random.default_rng(config.noise_seed)
        num_workers = engine.num_workers
        if num_workers is None:
            num_workers = min(max(store.num_segments, 1), os.cpu_count() or 1)
        self._num_workers = num_workers
        if engine.executor == "process" and num_workers > 0:
            logger.info(
                "segmented search scores in-process; executor='process' "
                "downgraded to the thread pool (%d workers)",
                num_workers,
            )
        self._score_block_rows = engine.score_block_rows
        self._pipeline_batch = engine.pipeline_batch or ENCODE_BLOCK_SIZE
        self._offsets = store.offsets
        self._scorers: Dict[int, ShardScorer] = {}
        self._records: Dict[int, List[ReferenceRecord]] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self.ann_stats = AnnStats() if config.ann is not None else None
        # Concurrent searches share this searcher (the coordinator's
        # workers, storm tests): _open_lock serializes segment
        # materialization (a double-open would build the float32 rows
        # twice), _stats_lock guards the plain-int counters that
        # scoring threads bump.
        self._open_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._segments_opened_count = 0
        self._segment_batches: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lazy segment plumbing
    # ------------------------------------------------------------------

    def _scorer(self, segment_id: int) -> ShardScorer:
        """Open one segment on first use: offset scorer + records.

        Thread-safe: concurrent searches race to materialize the same
        segment, and an unsynchronized double-open would build its
        scorer twice.  The fast path stays lock-free — dict reads are
        atomic and entries are only ever added, never replaced.
        """
        scorer = self._scorers.get(segment_id)
        if scorer is not None:
            return scorer
        with self._open_lock:
            return self._open_segment(segment_id)

    def _open_segment(self, segment_id: int) -> ShardScorer:
        """Materialize one segment; caller holds ``_open_lock``."""
        scorer = self._scorers.get(segment_id)
        if scorer is not None:
            return scorer
        segment = self.store.segment(segment_id)
        packed = np.asarray(segment.packed)
        tables = None
        if self.config.ann is not None:
            if segment.ann is not None and segment.ann.config == self.config.ann:
                tables = segment.ann
            else:
                tables = HammingLSHIndex.build(
                    packed, segment.dim, self.config.ann
                )
        payload = shard_payload(
            segment_id,
            (0, segment.num_references),
            packed,
            segment.neutral_masses,
            segment.charges,
            dim=segment.dim,
            backend=self._backend,
            charge_aware=self.windows.charge_aware,
            ann=self.config.ann,
            ann_tables=tables,
            score_block_rows=self._score_block_rows,
        )
        # Winners must carry *global* row numbers so the exact
        # tie-break (score, mass, position) matches a monolithic index.
        payload["positions"] = payload["positions"] + int(
            self._offsets[segment_id]
        )
        scorer = ShardScorer(payload)
        self._records[segment_id] = segment.records()
        self._scorers[segment_id] = scorer
        with self._stats_lock:
            self._segments_opened_count += 1
        return scorer

    def _reference(self, global_position: int) -> ReferenceRecord:
        """Resolve a global row number to its segment's record."""
        segment_id = (
            int(np.searchsorted(self._offsets, global_position, side="right"))
            - 1
        )
        return self._records[segment_id][
            global_position - int(self._offsets[segment_id])
        ]

    def close(self, timeout: float = 10.0) -> None:
        """Release the thread pool and drop every opened segment."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._open_lock:
            self._scorers.clear()
            self._records.clear()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "SegmentedSearcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def num_references(self) -> int:
        """Total reference rows across all segments."""
        return self.store.num_references

    @property
    def backend_name(self) -> str:
        """Human-readable engine label (feeds logs and search results)."""
        suffix = "+ann" if self.config.ann is not None else ""
        return (
            f"segmented-{self._backend_label}"
            f"x{self.store.num_segments}{suffix}"
        )

    @property
    def executor_kind(self) -> str:
        """The active execution mode: ``thread`` or ``serial``."""
        return "serial" if self._num_workers == 0 else "thread"

    @property
    def arena_nbytes(self) -> int:
        """Shared-memory bytes in use: always 0, scoring never leaves the process."""
        return 0

    @property
    def segments_opened(self) -> int:
        """How many segments this searcher has materialized so far."""
        with self._stats_lock:
            return self._segments_opened_count

    @property
    def segment_batches(self) -> Dict[int, int]:
        """Per-segment count of scored batches (a stats snapshot)."""
        with self._stats_lock:
            return dict(self._segment_batches)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def _score_segments(
        self,
        relevant: List[int],
        query_hvs: np.ndarray,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
    ) -> List[Tuple[np.ndarray, ...]]:
        # Open in the caller thread under _open_lock; score concurrently.
        scorers = [self._scorer(segment_id) for segment_id in relevant]

        def score(task: Tuple[int, ShardScorer]) -> Tuple[float, Tuple]:
            segment_id, scorer = task
            started = time.perf_counter()
            scored = scorer.score_batch(
                query_hvs, query_masses, query_charges, half_width
            )
            # Scoring threads all bump the per-segment stats; a plain
            # ``dict[k] = dict.get(k) + 1`` would lose increments.
            with self._stats_lock:
                self._segment_batches[segment_id] = (
                    self._segment_batches.get(segment_id, 0) + 1
                )
            return time.perf_counter() - started, scored

        tracer = get_tracer()
        with tracer.span(
            "segment.fanout",
            segments=len(relevant),
            total_segments=self.store.num_segments,
            workers=self._num_workers,
            executor=self.executor_kind,
            queries=len(query_masses),
        ):
            tasks = list(zip(relevant, scorers))
            if self._num_workers == 0 or len(scorers) <= 1:
                timed = [score(task) for task in tasks]
            else:
                pool = self._pool
                if pool is None:
                    with self._open_lock:
                        if self._pool is None:
                            self._pool = ThreadPoolExecutor(
                                max_workers=self._num_workers,
                                thread_name_prefix="segment-score",
                            )
                        pool = self._pool
                timed = list(pool.map(score, tasks))
            if tracer.enabled:
                for segment_id, (wall, _scored) in zip(relevant, timed):
                    tracer.emit(
                        "segment.score",
                        duration=float(wall),
                        thread=f"segment-{segment_id}",
                        segment=int(segment_id),
                        queries=len(query_masses),
                    )
        return [scored for _wall, scored in timed]

    def _run_pass(
        self,
        pairs: Sequence[Tuple[Spectrum, np.ndarray]],
        mode: str,
    ) -> List[Optional[PSM]]:
        """One windowed scoring pass over already-encoded queries."""
        query_hvs = np.stack([hv for _, hv in pairs])
        query_masses = np.array([q.neutral_mass for q, _ in pairs])
        query_charges = np.array(
            [q.precursor_charge for q, _ in pairs], dtype=np.int64
        )
        half_width = (
            self.windows.standard_tolerance_da
            if mode == "standard"
            else self.windows.open_window_da
        )
        # The pruning step: any segment outside this interval holds no
        # row within ±half_width of *any* query in the batch, so it can
        # contribute neither candidates nor counts.
        lo = float(query_masses.min()) - half_width
        hi = float(query_masses.max()) + half_width
        relevant = self.store.segments_for_range(lo, hi)
        if not relevant:
            return [None] * len(pairs)
        per_segment = self._score_segments(
            relevant, query_hvs, query_masses, query_charges, half_width
        )
        if self.ann_stats is not None:
            for scored in per_segment:
                self.ann_stats.record_batch(
                    scored[4], int(scored[0].sum()), int(scored[5][0])
                )
        counts = np.stack([scored[0] for scored in per_segment])
        scores = np.stack([scored[1] for scored in per_segment])
        masses = np.stack([scored[2] for scored in per_segment])
        positions = np.stack([scored[3] for scored in per_segment])
        totals = counts.sum(axis=0)
        # Same exact winner rule as every other engine: max score, ties
        # to lowest reference mass, then lowest (global) library position.
        winner = np.lexsort((positions, masses, -scores), axis=0)[0]

        results: List[Optional[PSM]] = []
        for column, (query, _hv) in enumerate(pairs):
            if totals[column] == 0 or totals[column] < self.config.min_candidates:
                results.append(None)
                continue
            row = int(winner[column])
            reference = self._reference(int(positions[row, column]))
            results.append(
                PSM(
                    query_id=query.identifier,
                    reference_id=reference.identifier,
                    peptide_key=reference.peptide_key(),
                    score=float(scores[row, column]),
                    is_decoy=reference.is_decoy,
                    precursor_mass_difference=query.neutral_mass
                    - reference.neutral_mass,
                    mode=mode,
                    reference_mass=float(reference.neutral_mass),
                    library_position=int(positions[row, column]),
                )
            )
        return results
