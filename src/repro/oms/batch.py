"""Batched open search: the dense-matrix dataflow of GPU accelerators.

The per-query searcher (:class:`~repro.oms.search.HDOmsSearcher`)
gathers each query's candidates and scores just those rows.  GPUs (and
the in-memory fabric) prefer the opposite: references kept in (charge,
precursor mass) order so a window is a contiguous slab, and whole
blocks of queries scored against it in one matmul — how HyperOMS and
RapidOMS lay the problem out.  Results are bit-identical to the
per-query path; only the schedule differs.

The layout and the blocked scoring live in
:class:`~repro.oms.kernel.WindowKernel`, the same kernel the sharded and
segmented searchers run per shard; this class is its single-process
consumer: preprocess, encode, one kernel call, PSMs.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..ann import AnnConfig, AnnStats, CandidatePrefilter, HammingLSHIndex
from ..hdc.noise import flip_bits
from ..hdc.packing import pack_bipolar
from ..ms.preprocessing import PreprocessingConfig, preprocess
from ..ms.spectrum import Spectrum
from ..obs.trace import NULL_SPAN, get_tracer
from .candidates import WindowConfig
from .kernel import WindowKernel
from .psm import PSM, SearchResult
from .search import encode_queries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import EngineConfig
    from ..index.library import LibraryIndex


class BatchedHDOmsSearcher:
    """Single-process dense-matrix open search over the window kernel.

    Same constructor contract as :class:`HDOmsSearcher` (encoder +
    references + configs); ``search`` produces the same PSMs, scheduled
    as one query-blocked matmul per overlapping group of windows.
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
        score_block_rows: Optional[int] = None,
    ) -> None:
        """Encode *references* and lay them out for window scoring.

        Args:
            encoder: Object with ``encode_batch(spectra) -> (n, dim)``.
            references: Library spectra (targets and decoys).
            preprocessing: Spectrum preprocessing config.
            windows: Precursor window config.
            mode: ``"open"`` or ``"standard"``.
            query_ber: Per-query random bit-flip rate.
            reference_ber: Reference-side random bit-flip rate.
            noise_seed: Seed of the bit-flip generator.
            ann: Optional ANN prefilter config; when set, large windows
                are shortlisted via Hamming LSH instead of the dense
                matmul.
            score_block_rows: Bound on the reference rows per matmul
                tile (``None`` = sized from the cache budget, ``0`` =
                untiled).  Never changes results.

        Raises:
            ValueError: On unsupported ``mode`` or when no reference
                survives preprocessing.
        """
        if mode not in ("open", "standard"):
            raise ValueError(
                f"batched search supports 'open'/'standard', got {mode!r}"
            )
        self.encoder = encoder
        self.preprocessing = preprocessing or PreprocessingConfig()
        self.windows = windows or WindowConfig()
        self.mode = mode
        self._noise_rng = np.random.default_rng(noise_seed)
        self.query_ber = query_ber
        self._score_block_rows = score_block_rows

        kept: List[Tuple[Spectrum, Spectrum]] = []
        for reference in references:
            processed = preprocess(reference, self.preprocessing)
            if processed is not None:
                kept.append((reference, processed))
        if not kept:
            raise ValueError("no reference spectrum survived preprocessing")
        self.references = [original for original, _ in kept]
        hvs = encoder.encode_batch([p for _, p in kept])
        if reference_ber > 0:
            hvs = flip_bits(hvs, reference_ber, self._noise_rng)
        self._init_kernel(pack_bipolar(hvs), hvs.shape[1], ann)

    def _init_kernel(
        self,
        packed: np.ndarray,
        dim: int,
        ann: Optional[AnnConfig],
        persisted: Optional[HammingLSHIndex] = None,
    ) -> None:
        """Lay the packed rows out for window scoring; build the prefilter.

        Persisted ANN tables are adopted when they were built with the
        same config; otherwise fresh tables are hashed from ``packed``.
        """
        masses = np.array([ref.neutral_mass for ref in self.references])
        charges = np.array([ref.precursor_charge for ref in self.references])
        self._kernel = WindowKernel(
            packed,
            masses,
            charges,
            dim=dim,
            charge_aware=self.windows.charge_aware,
            block_rows=self._score_block_rows,
        )
        self.ann_config = ann
        self._prefilter: Optional[CandidatePrefilter] = None
        self.ann_stats: Optional[AnnStats] = None
        if ann is None:
            return
        lsh = persisted if persisted is not None and persisted.config == ann else None
        if lsh is None:
            lsh = HammingLSHIndex.build(packed, dim, ann)
        self._prefilter = CandidatePrefilter(
            lsh, masses, charges, charge_aware=self.windows.charge_aware
        )
        self.ann_stats = AnnStats()

    @classmethod
    def from_index(
        cls,
        index: "LibraryIndex",
        windows: Optional[WindowConfig] = None,
        mode: str = "open",
        query_ber: float = 0.0,
        reference_ber: float = 0.0,
        noise_seed: int = 1234,
        encoder=None,
        ann: Optional[AnnConfig] = None,
        score_block_rows: Optional[int] = None,
        engine: Optional["EngineConfig"] = None,
    ) -> "BatchedHDOmsSearcher":
        """Build the batched searcher from a persisted library index.

        Same amortisation as :meth:`HDOmsSearcher.from_index`: reference
        preprocessing and encoding are skipped, query preprocessing and
        the encoder come from the index provenance.  Persisted ANN
        tables are reused when ``ann`` matches the config they were
        built with and no reference-side bit errors are injected.

        Args:
            index: The persisted library index.
            windows: Precursor window config.
            mode: ``"open"`` or ``"standard"``.
            query_ber: Per-query random bit-flip rate.
            reference_ber: Reference-side random bit-flip rate.
            noise_seed: Seed of the bit-flip generator.
            encoder: Optional shared encoder (validated against the
                index provenance).
            ann: Optional ANN prefilter config.
            score_block_rows: Bound on the reference rows per matmul
                tile (``None`` = auto, ``0`` = untiled).
            engine: Optional :class:`~repro.engine.EngineConfig`
                supplying ``ann`` / ``score_block_rows`` defaults when
                the explicit kwargs are unset.

        Returns:
            A ready-to-search batched searcher.

        Raises:
            ValueError: On unsupported ``mode`` or when ``engine.ann``
                disagrees with an explicit ``ann``.
            IndexCompatibilityError: If ``encoder`` disagrees with the
                index provenance.
        """
        if mode not in ("open", "standard"):
            raise ValueError(
                f"batched search supports 'open'/'standard', got {mode!r}"
            )
        if engine is not None:
            if score_block_rows is None:
                score_block_rows = engine.score_block_rows
            if engine.ann is not None:
                if ann is None:
                    ann = engine.ann
                elif ann != engine.ann:
                    raise ValueError(
                        "conflicting ANN configs: engine.ann disagrees "
                        "with the explicit ann argument"
                    )
        if encoder is not None:
            index.validate(encoder.space.config, encoder.binning)
        searcher = cls.__new__(cls)
        searcher.encoder = encoder if encoder is not None else index.make_encoder()
        searcher.preprocessing = index.preprocessing
        searcher.windows = windows or WindowConfig()
        searcher.mode = mode
        searcher._noise_rng = np.random.default_rng(noise_seed)
        searcher.query_ber = query_ber
        searcher._score_block_rows = score_block_rows
        searcher.references = index.records()
        packed = np.asarray(index.packed)
        if reference_ber > 0:
            packed = pack_bipolar(
                flip_bits(index.hypervectors(), reference_ber, searcher._noise_rng)
            )
        searcher._init_kernel(
            packed,
            index.dim,
            ann,
            persisted=index.ann if reference_ber == 0 else None,
        )
        return searcher

    @property
    def num_references(self) -> int:
        """Number of library rows this searcher scores against."""
        return len(self.references)

    def _half_width(self) -> float:
        if self.mode == "standard":
            return self.windows.standard_tolerance_da
        return self.windows.open_window_da

    def search(self, queries: Sequence[Spectrum]) -> SearchResult:
        """Search all queries through one window-kernel call.

        The whole batch is encoded through the fused vectorized pipeline
        first (one ``encode_batch`` pass in arrival order — this is what
        the service's micro-batch flushes ride on); BER injection stays
        per query in arrival order so results are bit-identical to the
        per-query schedule.
        """
        start = time.perf_counter()
        admitted: List[Tuple[Spectrum, Spectrum]] = []
        for query in queries:
            processed = preprocess(query, self.preprocessing)
            if processed is not None and self._kernel.has_bucket(
                query.precursor_charge
            ):
                admitted.append((query, processed))
        psms: List[PSM] = []
        if admitted:
            query_hvs = encode_queries(
                self.encoder, [processed for _, processed in admitted]
            )
            if self.query_ber > 0:
                query_hvs = np.stack(
                    [
                        flip_bits(query_hv, self.query_ber, self._noise_rng)
                        for query_hv in query_hvs
                    ]
                )
            psms = self._score([query for query, _ in admitted], query_hvs)
        return SearchResult(
            psms=psms,
            num_queries=len(queries),
            num_unmatched=len(queries) - len(psms),
            elapsed_seconds=time.perf_counter() - start,
            backend_name=(
                "batched-dense+ann"
                if self._prefilter is not None
                else "batched-dense"
            ),
        )

    def _score(
        self, queries: Sequence[Spectrum], query_hvs: np.ndarray
    ) -> List[PSM]:
        """One kernel pass over encoded queries; PSMs in arrival order."""
        masses = np.array([query.neutral_mass for query in queries])
        charges = np.array(
            [query.precursor_charge for query in queries], dtype=np.int64
        )
        # Under ANN the kernel spans each prefilter decision and re-rank
        # itself; the plain pass is one dense stage.
        span = NULL_SPAN
        if self._prefilter is None:
            span = get_tracer().span(
                "score.dense", queries=len(queries), refs=self.num_references
            )
        with span:
            winners = self._kernel.search(
                query_hvs, masses, charges, self._half_width(), self._prefilter
            )
        for selection in winners.selections:
            self.ann_stats.record(
                selection.outcome, selection.window_count, len(selection.positions)
            )
        psms: List[PSM] = []
        for query, row, score in zip(queries, winners.rows, winners.scores):
            if row < 0:
                continue
            position = int(self._kernel.positions[row])
            reference = self.references[position]
            psms.append(
                PSM(
                    query_id=query.identifier,
                    reference_id=reference.identifier,
                    peptide_key=reference.peptide_key(),
                    score=float(score),
                    is_decoy=reference.is_decoy,
                    precursor_mass_difference=query.neutral_mass
                    - reference.neutral_mass,
                    mode=self.mode,
                    reference_mass=float(reference.neutral_mass),
                    library_position=position,
                )
            )
        return psms
