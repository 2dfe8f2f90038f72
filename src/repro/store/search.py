"""The in-process row-layout provider: store segments split into parts.

The one in-process provider of the shared fan-out core
(:class:`~repro.oms.loop.FanOutSearcher`, which owns the query loop,
the scoring pass, the winner merge and the PSMs).  Every library is a
:class:`~repro.store.store.SegmentedStore` — a manifest store, a bare
``.npz``, or an in-memory :class:`~repro.index.library.LibraryIndex`
(raw spectra are encoded into one by :class:`BatchedHDOmsSearcher`)
adopted as one segment — and every part is a
:class:`~repro.oms.kernel.WindowKernel` over a contiguous row range of
one segment: a segment is one part unless ``EngineConfig.num_shards``
asks for more parts than there are segments.

The core's hull test routes each query to the parts whose segment's
recorded mass range meets its window (widened by the active
half-width); a segment only opens once a query is routed to it, and a
part only scores those queries.  A skipped (query, part) cell
contributes zero candidate rows by construction, so pruning is exact:
results are bit-identical to a monolithic search, ``min_candidates``
gating included.

Each opened part is laid out from its segment's mmap'd arrays, with
its rows numbered globally.  Scoring runs in-process —
serially or on the core's thread pool over the GIL-releasing kernels —
so nothing is ever copied between processes.
"""

from __future__ import annotations

import bisect
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..ann import AnnConfig
from ..engine import EngineConfig
from ..hdc.noise import flip_packed
from ..index.library import IndexCompatibilityError, LibraryIndex, ReferenceRecord
from ..ms.preprocessing import PreprocessingConfig
from ..ms.spectrum import Spectrum
from ..oms.candidates import HDSearchConfig, WindowConfig
from ..oms.kernel import WindowKernel
from ..oms.loop import FanOutSearcher
from .manifest import SegmentMeta
from .store import SegmentedStore


def part_layout(
    segments: Sequence[SegmentMeta], num_parts: int
) -> List[Tuple[int, int, int]]:
    """``(segment, start, stop)`` of every part, in global row order.

    Each segment is one part until ``num_parts`` asks for more; the
    extra parts go, one at a time, to the segment with the most rows
    per part, and a segment of *k* parts splits like ``np.array_split``
    (the first ``rows % k`` parts one row longer).

    Raises:
        ValueError: If ``num_parts`` exceeds the library's rows.
    """
    rows = [meta.num_references for meta in segments]
    if not rows:
        return []
    if num_parts > sum(rows):
        raise ValueError(f"cannot split {sum(rows)} references into {num_parts} shards")
    counts = [1] * len(rows)
    for _ in range(num_parts - len(rows)):
        widest = max(range(len(rows)), key=lambda s: rows[s] / counts[s])
        counts[widest] += 1
    layout = []
    for segment, (total, count) in enumerate(zip(rows, counts)):
        base, extra = divmod(total, count)
        start = 0
        for part in range(count):
            stop = start + base + (1 if part < extra else 0)
            layout.append((segment, start, stop))
            start = stop
    return layout


class SegmentedSearcher(FanOutSearcher):
    """Search a library, opening only the segments a batch needs.

    Parameters
    ----------
    library:
        An opened :class:`SegmentedStore`, a :class:`LibraryIndex`
        (adopted as a one-segment store) or a path
        :meth:`SegmentedStore.open` accepts.
    preprocessing / windows / config:
        Stage configurations; preprocessing defaults to the library's
        own.  ``config.reference_ber`` flips every segment, in manifest
        order, at construction.
    engine:
        The :class:`~repro.engine.EngineConfig`: ``num_shards`` is the
        least number of parts (segments split into contiguous row
        ranges to reach it), ``num_workers`` the scoring thread count
        (``0`` = serial, ``None`` = auto up to the part count), plus ANN.
    encoder:
        Optional pre-built query encoder; validated against the library
        provenance.  By default it is rebuilt from the provenance.
    """

    def __init__(
        self,
        library: Union[SegmentedStore, LibraryIndex, str, Path],
        preprocessing: Optional[PreprocessingConfig] = None,
        windows: Optional[WindowConfig] = None,
        config: Optional[HDSearchConfig] = None,
        engine: Optional[EngineConfig] = None,
        encoder=None,
    ) -> None:
        # A searcher that opened the store itself owns it (and closes
        # it); a caller-provided store stays the caller's to close.
        self._owns_store = not isinstance(library, SegmentedStore)
        if isinstance(library, LibraryIndex):
            library = SegmentedStore.from_index(library)
        elif self._owns_store:
            library = SegmentedStore.open(library)
        self.store = store = library
        if encoder is not None and (
            encoder.space.config, encoder.binning
        ) != (store.space_config, store.binning):
            raise IndexCompatibilityError(
                "encoder configuration disagrees with the library provenance"
            )
        engine = engine or EngineConfig()
        metas = store.segment_metas
        self._parts = part_layout(metas, engine.num_shards)
        self._init_core(
            encoder=encoder if encoder is not None else store.make_encoder(),
            preprocessing=preprocessing or store.preprocessing,
            windows=windows,
            config=config,
            engine=engine,
            num_parts=len(self._parts),
            label=f"shardedx{len(self._parts)}",
        )
        self._offsets = store.offsets.tolist()
        hulls = [(metas[segment].mass_min, metas[segment].mass_max) for segment, *_ in self._parts]
        self._hulls = np.array(hulls).reshape(-1, 2)
        self._opened: Dict[int, LibraryIndex] = {}
        self._flipped: Dict[int, np.ndarray] = {}
        if self.config.reference_ber > 0:
            # Same RNG draw order as HDOmsSearcher: flip_packed draws one
            # row-major stream, so flipping the segments in manifest order
            # is its one pass over the full matrix, before any query.
            for segment in range(len(metas)):
                self._flipped[segment] = flip_packed(
                    store.segment(segment).packed, store.dim,
                    self.config.reference_ber, self._noise_rng,
                )
        # Guards the plain-int counters concurrent searches bump.
        self._stats_lock = threading.Lock()
        self._segments_opened_count = 0
        self._segment_batches: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # the row layout: lazily opened, mass-pruned segment parts
    # ------------------------------------------------------------------

    def warm(self) -> None:
        """Lay out now every part of a segment that is already open.

        Never opens a segment: an adopted ``.npz`` answers its first
        request at full speed, a manifest store stays lazy — that is its
        pruning.  A service calls this when it builds or reloads a route.
        """
        opened = self.store.open_segment_ids
        for part, (segment, _start, _stop) in enumerate(self._parts):
            if segment in opened:
                self._scorer(part)

    def _parts_for(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """The core's routing mask; each segment it routes to counts as scored."""
        mask = super()._parts_for(lows, highs)
        hits = mask.any(axis=1).tolist()
        routed = {segment for (segment, *_), hit in zip(self._parts, hits) if hit}
        with self._stats_lock:
            for segment in routed:
                self._segment_batches[segment] = self._segment_batches.get(segment, 0) + 1
        return mask

    def _open_part(self, part: int) -> WindowKernel:
        """One part's kernel, its segment opened (and counted) on first use."""
        segment_id, start, stop = self._parts[part]
        segment = self._opened.get(segment_id)
        if segment is None:
            segment = self._opened[segment_id] = self.store.segment(segment_id)
            with self._stats_lock:
                self._segments_opened_count += 1
        # Winners must carry *global* row numbers so the exact
        # tie-break (score, mass, position) matches a monolithic index.
        offset = self._offsets[segment_id]
        return WindowKernel(
            self._flipped.get(segment_id, segment.packed)[start:stop],
            segment.neutral_masses[start:stop],
            segment.charges[start:stop],
            np.arange(offset + start, offset + stop, dtype=np.int64),
            dim=segment.dim,
            charge_aware=self.windows.charge_aware,
        )

    def _reference(self, global_position: int) -> ReferenceRecord:
        """Resolve a global row number to its segment's record."""
        segment_id = bisect.bisect_right(self._offsets, global_position) - 1
        return self._opened[segment_id].record(global_position - self._offsets[segment_id])

    def close(self, timeout: float = 10.0) -> None:
        """Release the thread pool and drop every opened segment."""
        super().close(timeout)
        with self._open_lock:
            self._opened.clear()
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


class BatchedHDOmsSearcher(SegmentedSearcher):
    """:class:`SegmentedSearcher` over one library, with the oracle's constructor.

    Same constructor contract as :class:`~repro.oms.search.HDOmsSearcher`
    (encoder + references), with the
    :class:`~repro.oms.candidates.HDSearchConfig` fields spelled out as
    keyword arguments; ``search`` produces the same PSMs.  The
    references are encoded by :meth:`LibraryIndex.build
    <repro.index.library.LibraryIndex.build>` and searched as a
    one-segment store.
    """

    def __init__(
        self,
        encoder,
        references: Sequence[Spectrum],
        preprocessing: Optional[PreprocessingConfig] = None,
        windows: Optional[WindowConfig] = None,
        mode: str = "open",
        query_ber: float = 0.0,
        reference_ber: float = 0.0,
        noise_seed: int = 1234,
        ann: Optional[AnnConfig] = None,
        min_candidates: int = 1,
    ) -> None:
        """Encode *references* and search them as one segment.

        Args:
            encoder: Object with ``space``, ``binning`` and
                ``encode_batch(spectra) -> (n, dim)``.
            references: Library spectra (targets and decoys).
            preprocessing: Spectrum preprocessing config.
            windows: Precursor window config.
            mode: ``"open"``, ``"standard"`` or ``"cascade"``.
            query_ber: Per-query random bit-flip rate.
            reference_ber: Reference-side random bit-flip rate.
            noise_seed: Seed of the bit-flip generator.
            ann: Optional ANN config; when set, large windows are
                shortlisted on a row prefix before exact scoring.
            min_candidates: Smallest precursor window that may yield a
                match.

        Raises:
            ValueError: On an unknown ``mode`` or when no reference
                survives preprocessing.
        """
        config = HDSearchConfig(mode, query_ber, reference_ber, noise_seed, min_candidates, ann)
        index = LibraryIndex.build(references, encoder=encoder, preprocessing=preprocessing)
        super().__init__(index, windows=windows, config=config, encoder=encoder)

    @classmethod
    def from_index(
        cls,
        index: LibraryIndex,
        windows: Optional[WindowConfig] = None,
        mode: str = "open",
        query_ber: float = 0.0,
        reference_ber: float = 0.0,
        noise_seed: int = 1234,
        encoder=None,
        ann: Optional[AnnConfig] = None,
        engine: Optional[EngineConfig] = None,
        min_candidates: int = 1,
    ) -> "BatchedHDOmsSearcher":
        """Search a persisted library index; its references are not re-encoded.

        Args are the constructor's, plus ``encoder`` (an optional shared
        query encoder, validated against the index provenance) and
        ``engine`` (an optional :class:`~repro.engine.EngineConfig`
        supplying ``ann`` when the explicit kwarg is unset).

        Raises:
            ValueError: On an unknown ``mode`` or when ``engine.ann``
                disagrees with an explicit ``ann``.
            IndexCompatibilityError: If ``encoder`` disagrees with the
                index provenance.
        """
        config = HDSearchConfig(mode, query_ber, reference_ber, noise_seed, min_candidates, ann)
        searcher = cls.__new__(cls)
        SegmentedSearcher.__init__(
            searcher, index, windows=windows, config=config, engine=engine, encoder=encoder
        )
        return searcher


#: The name the layer harness (``bench/layers.py``) still imports.
ShardedSearcher = SegmentedSearcher
