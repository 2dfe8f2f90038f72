"""Batched open search: the contiguous-window dataflow of the accelerators.

The per-query searcher (:class:`~repro.oms.search.HDOmsSearcher`)
gathers each query's candidates and scores just those rows.  GPUs (and
the in-memory fabric) prefer the opposite: bit-packed references kept
in (charge, precursor mass) order so a window is a contiguous slab that
a query streams through XOR + popcount without a gather — how HyperOMS
and RapidOMS lay the problem out.  Results are bit-identical to the
per-query path; only the layout and the schedule differ.

The query loop, the scoring pass and the PSMs are the shared fan-out
core's (:class:`~repro.oms.loop.FanOutSearcher`); this class is its
simplest row-layout provider: the whole library as **one in-process
part**, built either from raw spectra (encoded here) or from a
persisted index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..ann import AnnConfig
from ..engine import EngineConfig
from ..hdc.encoder import encode_packed_rows
from ..hdc.noise import flip_packed
from ..ms.preprocessing import EmptyLibraryError, PreprocessingConfig, preprocess_many
from ..ms.spectrum import Spectrum
from .candidates import HDSearchConfig, WindowConfig
from .loop import FanOutSearcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..index.library import LibraryIndex


class BatchedHDOmsSearcher(FanOutSearcher):
    """Single-process open search: the fan-out core over one part.

    Same constructor contract as :class:`HDOmsSearcher` (encoder +
    references), with the :class:`~repro.oms.candidates.HDSearchConfig`
    fields spelled out as keyword arguments; ``search`` produces the
    same PSMs, each query scored against its contiguous packed window.
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
        """Encode *references* and lay them out for window scoring.

        Args:
            encoder: Object with ``space`` and
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
        preprocessing = preprocessing or PreprocessingConfig()
        kept: List[Tuple[Spectrum, Spectrum]] = [
            (reference, processed)
            for reference, processed in zip(
                references, preprocess_many(references, preprocessing)
            )
            if processed is not None
        ]
        if not kept:
            raise EmptyLibraryError()
        self._init_core(
            encoder=encoder,
            preprocessing=preprocessing,
            windows=windows,
            config=HDSearchConfig(
                mode, query_ber, reference_ber, noise_seed, min_candidates, ann
            ),
            engine=EngineConfig(),
            num_parts=1,
            label="batched",
        )
        originals = [original for original, _ in kept]
        dim = encoder.space.dim
        packed = flip_packed(
            encode_packed_rows(encoder, [processed for _, processed in kept]),
            dim,
            reference_ber,
            self._noise_rng,
        )
        self._adopt_rows(
            originals.__getitem__,
            packed,
            [reference.neutral_mass for reference in originals],
            [reference.precursor_charge for reference in originals],
            dim,
            [(0, len(originals))],
        )
        self.warm()

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
        engine: Optional[EngineConfig] = None,
        min_candidates: int = 1,
    ) -> "BatchedHDOmsSearcher":
        """Build the batched searcher from a persisted library index.

        Same amortisation as :meth:`HDOmsSearcher.from_index`: reference
        preprocessing and encoding are skipped, query preprocessing and
        the encoder come from the index provenance.

        Args:
            index: The persisted library index.
            windows: Precursor window config.
            mode: ``"open"``, ``"standard"`` or ``"cascade"``.
            query_ber: Per-query random bit-flip rate.
            reference_ber: Reference-side random bit-flip rate.
            noise_seed: Seed of the bit-flip generator.
            encoder: Optional shared encoder (validated against the
                index provenance).
            ann: Optional ANN prefilter config.
            engine: Optional :class:`~repro.engine.EngineConfig`
                supplying ``ann`` when the explicit kwarg is unset.
            min_candidates: Smallest precursor window that may yield a
                match.

        Returns:
            A ready-to-search batched searcher.

        Raises:
            ValueError: On an unknown ``mode`` or when ``engine.ann``
                disagrees with an explicit ``ann``.
            IndexCompatibilityError: If ``encoder`` disagrees with the
                index provenance.
        """
        engine = engine or EngineConfig()
        if encoder is not None:
            index.validate(encoder.space.config, encoder.binning)
        searcher = cls.__new__(cls)
        searcher._init_core(
            encoder=encoder if encoder is not None else index.make_encoder(),
            preprocessing=index.preprocessing,
            windows=windows,
            config=HDSearchConfig(
                mode, query_ber, reference_ber, noise_seed, min_candidates, ann
            ),
            engine=engine,
            num_parts=1,
            label="batched",
        )
        # Same RNG draw order as HDOmsSearcher: one flip pass over the
        # full matrix before any query is touched.
        searcher._adopt_rows(
            index.record,
            flip_packed(index.packed, index.dim, reference_ber, searcher._noise_rng),
            index.neutral_masses,
            index.charges,
            index.dim,
            [(0, index.num_references)],
        )
        searcher.warm()
        return searcher
