"""Window-pruned search over a :class:`~repro.store.store.SegmentedStore`.

A row-layout provider for the shared fan-out core
(:class:`~repro.oms.loop.FanOutSearcher`, which owns the query loop,
the scoring pass, the winner merge and the PSMs): the unit of fan-out
is a manifest segment, and segments are strictly lazy.  The core's hull
test routes each query to the segments whose recorded mass range meets
its window (widened by the active half-width); a segment only opens
once a query is routed to it and only scores those queries.  A skipped
(query, segment) cell contributes zero candidate rows by construction,
so pruning is exact: results are bit-identical to a monolithic search,
``min_candidates`` gating included.

Each opened segment is scored straight from its mmap'd arrays, with
positions offset to global row numbers.  Scoring runs in-process —
serially or on the core's thread pool over the GIL-releasing kernels —
so nothing is ever copied between processes.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..engine import EngineConfig
from ..index.library import IndexCompatibilityError, ReferenceRecord
from ..ms.preprocessing import PreprocessingConfig
from ..oms.candidates import WindowConfig
from ..oms.loop import FanOutSearcher
from ..oms.search import HDSearchConfig
from .store import SegmentedStore


class SegmentedSearcher(FanOutSearcher):
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

    part_name = "segment"
    engine_kind = "segmented"

    def __init__(
        self,
        store: Union[SegmentedStore, str, Path],
        preprocessing: Optional[PreprocessingConfig] = None,
        windows: Optional[WindowConfig] = None,
        config: Optional[HDSearchConfig] = None,
        engine: Optional[EngineConfig] = None,
        encoder=None,
    ) -> None:
        if config is not None and config.reference_ber > 0:
            raise ValueError(
                "SegmentedSearcher does not support reference_ber: noise "
                "injection over the full library would force every segment "
                "open, defeating lazy segment pruning"
            )
        # A searcher that opened the store itself owns it (and closes
        # it); a caller-provided store stays the caller's to close.
        self._owns_store = not isinstance(store, SegmentedStore)
        if self._owns_store:
            store = SegmentedStore.open(store)
        self.store = store
        if encoder is not None and encoder.space.config != store.space_config:
            raise IndexCompatibilityError(
                "encoder space config disagrees with the store provenance"
            )
        engine = engine or EngineConfig()
        self._init_core(
            encoder=encoder if encoder is not None else store.make_encoder(),
            preprocessing=preprocessing or store.preprocessing,
            windows=windows,
            config=config,
            engine=engine,
            num_parts=store.num_segments,
            label=f"segmentedx{store.num_segments}",
        )
        self._offsets = store.offsets
        hulls = [[meta.mass_min, meta.mass_max] for meta in store.segment_metas]
        self._hulls = np.array(hulls).reshape(-1, 2)
        self._records: Dict[int, List[ReferenceRecord]] = {}
        # Guards the plain-int counters concurrent searches bump.
        self._stats_lock = threading.Lock()
        self._segments_opened_count = 0
        self._segment_batches: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # the row layout: lazily opened, mass-pruned segments
    # ------------------------------------------------------------------

    def _parts_for(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """The core's routing mask; each segment it routes to counts as scored."""
        mask = super()._parts_for(lows, highs)
        with self._stats_lock:
            for segment_id in np.flatnonzero(mask.any(axis=1)).tolist():
                self._segment_batches[segment_id] = (
                    self._segment_batches.get(segment_id, 0) + 1
                )
        return mask

    def _part_payload(self, segment_id: int) -> Dict:
        """Open one segment: its payload, its records, one more open counted."""
        segment = self.store.segment(segment_id)
        payload = self._payload(
            segment_id,
            (0, segment.num_references),
            np.asarray(segment.packed),
            segment.neutral_masses,
            segment.charges,
            segment.dim,
        )
        # Winners must carry *global* row numbers so the exact
        # tie-break (score, mass, position) matches a monolithic index.
        payload["positions"] = payload["positions"] + int(
            self._offsets[segment_id]
        )
        self._records[segment_id] = segment.records()
        with self._stats_lock:
            self._segments_opened_count += 1
        return payload

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
        super().close(timeout)
        with self._open_lock:
            self._records.clear()
        if self._owns_store:
            self.store.close()

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def num_references(self) -> int:
        """Total reference rows across all segments."""
        return self.store.num_references

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
