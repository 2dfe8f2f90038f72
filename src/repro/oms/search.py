"""The HD open-modification searcher (paper Figure 2's middle stages).

References are preprocessed and encoded into hypervectors once; each
query is encoded and compared — by Hamming similarity — against the
references inside its precursor window.  The similarity computation is
delegated to a pluggable *backend* so the same searcher can run on the
exact dense/packed software paths or on the simulated MLC RRAM
accelerator (:mod:`repro.accelerator`).

Bit-error injection hooks (``query_ber`` / ``reference_ber``) implement
the robustness study of Section 5.3.2 / Figure 11.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

import numpy as np

from ..ann import AnnRows, AnnStats, CandidatePrefilter
from ..hdc.encoder import SpectrumEncoder
from ..hdc.noise import flip_bits
from ..hdc.packing import pack_bipolar
from ..hdc.similarity import packed_dot_scores
from ..ms.preprocessing import EmptyLibraryError, PreprocessingConfig, preprocess
from ..ms.spectrum import Spectrum
from ..obs.trace import get_tracer
from .candidates import (
    ENCODE_BLOCK_SIZE,
    SCORE_BLOCK_BYTES,
    CandidateIndex,
    HDSearchConfig,
    WindowConfig,
)
from .psm import PSM, SearchResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import EngineConfig
    from ..index.library import LibraryIndex

#: Never tile below this many rows — tiny blocks would turn one BLAS
#: call into a Python-loop of degenerate kernels.
MIN_SCORE_BLOCK_ROWS = 256


def _auto_block_rows(row_bytes: int) -> int:
    """Rows per scoring block for a given per-row byte cost."""
    return max(MIN_SCORE_BLOCK_ROWS, SCORE_BLOCK_BYTES // max(1, row_bytes))


def encode_queries(encoder, processed: Sequence[Spectrum]) -> np.ndarray:
    """Encode preprocessed queries into one ``(n, dim)`` int8 matrix.

    The exact software :class:`~repro.hdc.encoder.SpectrumEncoder` goes
    through its fused batch pipeline in blocks of
    ``ENCODE_BLOCK_SIZE`` (bit-identical to per-query ``encode``, one
    vectorized pass per block).  Other encoders — the analog in-memory
    encoder, the MLC storage round-trip wrapper — keep their
    per-spectrum path so their internal noise draw order is unchanged.
    """
    if not processed:
        return np.empty((0, encoder.space.dim), dtype=np.int8)
    if isinstance(encoder, SpectrumEncoder):
        blocks = [
            encoder.encode_batch(processed[start : start + ENCODE_BLOCK_SIZE])
            for start in range(0, len(processed), ENCODE_BLOCK_SIZE)
        ]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
    return np.stack([encoder.encode(spectrum) for spectrum in processed])


class SimilarityBackend(Protocol):
    """Scores a query hypervector against stored reference rows."""

    name: str

    def prepare(self, reference_hvs: np.ndarray) -> None:
        """Load the encoded reference matrix (called once)."""

    def scores(
        self, query_hv: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Dot-product scores of the query against ``positions`` rows."""


class DenseBackend:
    """Exact similarity via BLAS matmul on the int8 reference matrix.

    The gather path is tiled to :data:`SCORE_BLOCK_BYTES` so the
    gathered row copy stays cache-resident.  Tiling never changes
    results — float32 accumulation of integer dot products below 2^24 is
    exact in any order.
    """

    name = "dense"

    def __init__(self) -> None:
        self._refs: Optional[np.ndarray] = None

    def prepare(self, reference_hvs: np.ndarray) -> None:
        """Stage the reference matrix for repeated scoring."""
        self._refs = reference_hvs.astype(np.float32)

    def scores(self, query_hv: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Similarity scores of ``query_hv`` against rows at ``positions``."""
        if self._refs is None:
            raise RuntimeError("backend not prepared")
        query = query_hv.astype(np.float32)
        if len(positions) == self._refs.shape[0]:
            # The window covers every stored row (the common wide-window
            # open-search case): score the prepared matrix directly and
            # reorder the (n,) score vector, skipping the (n, dim)
            # fancy-index gather copy.  Exact for any positions order —
            # (refs @ q)[positions][i] == refs[positions[i]] @ q.
            return (self._refs @ query).astype(np.int32)[positions]
        block = _auto_block_rows(self._refs.shape[1] * 4)
        if len(positions) > block:
            # Tile the gather: each block's (block, dim) float32 copy
            # fits the cache budget instead of materialising the whole
            # (window, dim) temporary at once.
            out = np.empty(len(positions), dtype=np.int32)
            for start in range(0, len(positions), block):
                chunk = positions[start : start + block]
                out[start : start + len(chunk)] = (
                    self._refs[chunk] @ query
                ).astype(np.int32)
            return out
        return (self._refs[positions] @ query).astype(np.int32)


class PackedBackend:
    """Digital-hardware reference path: packed bits, XOR + popcount.

    Tiled to :data:`SCORE_BLOCK_BYTES` like :class:`DenseBackend`.
    Full-coverage windows score the prepared matrix as one contiguous
    slab — no gather copy.
    """

    name = "packed"

    def __init__(self) -> None:
        self._packed: Optional[np.ndarray] = None
        self._dim: int = 0

    def prepare(self, reference_hvs: np.ndarray) -> None:
        """Bit-pack the reference matrix for repeated scoring."""
        self._dim = reference_hvs.shape[1]
        self._packed = pack_bipolar(reference_hvs)

    def scores(self, query_hv: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Similarity scores of ``query_hv`` against rows at ``positions``."""
        if self._packed is None:
            raise RuntimeError("backend not prepared")
        packed_query = pack_bipolar(query_hv[np.newaxis, :])[0]
        block = _auto_block_rows(self._packed.shape[1])
        if len(positions) == self._packed.shape[0]:
            # Full-coverage fast path, mirroring DenseBackend: score the
            # contiguous prepared matrix and reorder the (n,) result —
            # exact for any positions order, and the XOR runs on one
            # contiguous slab instead of a gathered copy.
            return packed_dot_scores(
                self._packed, packed_query, self._dim, block
            )[positions]
        return packed_dot_scores(
            self._packed[positions], packed_query, self._dim, block
        )


class HDOmsSearcher:
    """Open modification search over hypervector-encoded references.

    Parameters
    ----------
    encoder:
        Object with ``encode(spectrum) -> hypervector``; either the
        software :class:`~repro.hdc.encoder.SpectrumEncoder` or the
        in-memory accelerator encoder.
    references:
        Library spectra (targets + decoys) to index.
    preprocessing / windows / config:
        Stage configurations; sensible defaults everywhere.
    backend:
        Similarity backend; defaults to :class:`DenseBackend`.
    """

    def __init__(
        self,
        encoder,
        references: Sequence[Spectrum],
        preprocessing: Optional[PreprocessingConfig] = None,
        windows: Optional[WindowConfig] = None,
        config: Optional[HDSearchConfig] = None,
        backend: Optional[SimilarityBackend] = None,
    ) -> None:
        self.encoder = encoder
        self.preprocessing = preprocessing or PreprocessingConfig()
        self.windows = windows or WindowConfig()
        self.config = config or HDSearchConfig()
        self.backend = backend or DenseBackend()
        self._noise_rng = np.random.default_rng(self.config.noise_seed)

        kept: List[Spectrum] = []
        for reference in references:
            processed = preprocess(reference, self.preprocessing)
            if processed is not None:
                # Keep the original for metadata, the processed for encoding.
                kept.append((reference, processed))
        if not kept:
            raise EmptyLibraryError()
        self.references: List[Spectrum] = [original for original, _ in kept]
        reference_hvs = encoder.encode_batch([p for _, p in kept])
        if self.config.reference_ber > 0:
            reference_hvs = flip_bits(
                reference_hvs, self.config.reference_ber, self._noise_rng
            )
        self.reference_hvs = reference_hvs
        self.backend.prepare(reference_hvs)
        self.index = CandidateIndex(self.references, self.windows)
        self._init_prefilter()

    @classmethod
    def from_index(
        cls,
        index: "LibraryIndex",
        windows: Optional[WindowConfig] = None,
        config: Optional[HDSearchConfig] = None,
        backend: Optional[SimilarityBackend] = None,
        encoder=None,
        engine: Optional["EngineConfig"] = None,
    ) -> "HDOmsSearcher":
        """Build a searcher from a persisted library index.

        Skips reference preprocessing *and* encoding entirely: the
        hypervectors and metadata come straight from the index, and the
        query-side encoder is reconstructed from the index's stored
        configuration (pass ``encoder`` to share one; it is validated
        against the index provenance).  Query preprocessing uses the
        exact config the index was built with, so results match a
        searcher built from the original spectra bit for bit.

        ``engine`` (an :class:`~repro.engine.EngineConfig`) supplies the
        ANN prefilter config when ``config.ann`` does not; an
        ``engine.ann`` that disagrees with ``config.ann`` is an error
        rather than a silent preference.
        """
        if engine is not None:
            config = engine.search_config(config)
        if encoder is not None:
            index.validate(encoder.space.config, encoder.binning)
        searcher = cls.__new__(cls)
        searcher.encoder = encoder if encoder is not None else index.make_encoder()
        searcher.preprocessing = index.preprocessing
        searcher.windows = windows or WindowConfig()
        searcher.config = config or HDSearchConfig()
        searcher.backend = backend or DenseBackend()
        searcher._noise_rng = np.random.default_rng(searcher.config.noise_seed)
        searcher.references = index.records()
        reference_hvs = index.hypervectors()
        if searcher.config.reference_ber > 0:
            reference_hvs = flip_bits(
                reference_hvs, searcher.config.reference_ber, searcher._noise_rng
            )
        searcher.reference_hvs = reference_hvs
        searcher.backend.prepare(reference_hvs)
        searcher.index = CandidateIndex(searcher.references, searcher.windows)
        searcher._init_prefilter()
        return searcher

    def _init_prefilter(self) -> None:
        """Set up the standalone coarse pass when ``config.ann`` is set.

        It reads the packed form of the (possibly noisy) reference
        hypervectors this searcher scores.
        """
        self._prefilter: Optional[CandidatePrefilter] = None
        self.ann_stats: Optional[AnnStats] = None
        ann = self.config.ann
        if ann is None:
            return
        rows = AnnRows(pack_bipolar(self.reference_hvs), ann)
        masses = np.array([ref.neutral_mass for ref in self.references])
        charges = np.array([ref.precursor_charge for ref in self.references])
        self._prefilter = CandidatePrefilter(
            rows, masses, charges, charge_aware=self.windows.charge_aware
        )
        self.ann_stats = AnnStats()

    @property
    def num_references(self) -> int:
        """Number of library rows this searcher scores against."""
        return len(self.references)

    def _candidates(self, query: Spectrum, mode: str) -> np.ndarray:
        if mode == "standard":
            return self.index.select_standard(query)
        return self.index.select_open(query)

    def _select(
        self, query: Spectrum, query_hv: np.ndarray, mode: str
    ) -> tuple:
        """Positions to score plus the full window size for one query."""
        if self._prefilter is None:
            positions = self._candidates(query, mode)
            return positions, len(positions)
        half_width = (
            self.windows.standard_tolerance_da
            if mode == "standard"
            else self.windows.open_window_da
        )
        with get_tracer().span("ann.prefilter", mode=mode) as span:
            selection = self._prefilter.select(
                query_hv, query.neutral_mass, query.precursor_charge, half_width
            )
            span.tag(
                outcome=selection.outcome,
                window=selection.window_count,
                shortlist=len(selection.positions),
            )
        self.ann_stats.record(
            selection.outcome, selection.window_count, len(selection.positions)
        )
        return selection.positions, selection.window_count

    def _best_psm(
        self,
        query: Spectrum,
        query_hv: np.ndarray,
        positions: np.ndarray,
        mode: str,
        window_count: Optional[int] = None,
    ) -> Optional[PSM]:
        if window_count is None:
            window_count = len(positions)
        if window_count < self.config.min_candidates or len(positions) == 0:
            return None
        with get_tracer().span(
            "score.window", rows=len(positions), backend=self.backend.name
        ):
            scores = self.backend.scores(query_hv, positions)
        best = int(np.argmax(scores))
        reference = self.references[int(positions[best])]
        return PSM(
            query_id=query.identifier,
            reference_id=reference.identifier,
            peptide_key=reference.peptide_key(),
            score=float(scores[best]),
            is_decoy=reference.is_decoy,
            precursor_mass_difference=query.neutral_mass - reference.neutral_mass,
            mode=mode,
            reference_mass=float(reference.neutral_mass),
            library_position=int(positions[best]),
        )

    def _search_encoded(
        self, query: Spectrum, query_hv: np.ndarray
    ) -> Optional[PSM]:
        """Noise injection + windowed scoring for one encoded query."""
        if self.config.query_ber > 0:
            query_hv = flip_bits(query_hv, self.config.query_ber, self._noise_rng)
        if self.config.mode == "cascade":
            positions, window = self._select(query, query_hv, "standard")
            psm = self._best_psm(query, query_hv, positions, "standard", window)
            if psm is not None:
                return psm
            positions, window = self._select(query, query_hv, "open")
            return self._best_psm(query, query_hv, positions, "open", window)
        mode = self.config.mode
        positions, window = self._select(query, query_hv, mode)
        return self._best_psm(query, query_hv, positions, mode, window)

    def search_one(self, query: Spectrum) -> Optional[PSM]:
        """Search a single query; None when preprocessing/candidates fail."""
        processed = preprocess(query, self.preprocessing)
        if processed is None:
            return None
        return self._search_encoded(query, self.encoder.encode(processed))

    def search(self, queries: Sequence[Spectrum]) -> SearchResult:
        """Search all queries, returning one best PSM per matched query.

        Queries are encoded in fused blocks (see :func:`encode_queries`)
        instead of one at a time inside the scoring loop; BER injection
        and scoring then run per query in arrival order, so results are
        bit-identical to repeated :meth:`search_one` calls.
        """
        start = time.perf_counter()
        psms: List[PSM] = []
        unmatched = 0
        # Preprocess, encode, and score one block at a time: the fused
        # encode keeps its batch win while extra memory stays
        # O(ENCODE_BLOCK_SIZE * dim) — the streaming behaviour of the
        # old per-query loop, not a whole-workload hypervector matrix.
        position = 0
        while position < len(queries):
            block: List[tuple] = []
            while position < len(queries) and len(block) < ENCODE_BLOCK_SIZE:
                query = queries[position]
                position += 1
                processed = preprocess(query, self.preprocessing)
                if processed is None:
                    unmatched += 1
                else:
                    block.append((query, processed))
            query_hvs = encode_queries(
                self.encoder, [processed for _, processed in block]
            )
            for (query, _processed), query_hv in zip(block, query_hvs):
                psm = self._search_encoded(query, query_hv)
                if psm is None:
                    unmatched += 1
                else:
                    psms.append(psm)
        elapsed = time.perf_counter() - start
        return SearchResult(
            psms=psms,
            num_queries=len(queries),
            num_unmatched=unmatched,
            elapsed_seconds=elapsed,
            backend_name=self.backend.name,
        )
