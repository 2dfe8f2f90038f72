"""Shared machinery for the comparison baselines.

Both ANN-SoLo-like and brute-force searchers operate on *binned sparse
vectors* (not hypervectors), so they share reference preparation, the
candidate index, and the query loop; concrete searchers only implement
``score_candidates``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ms.preprocessing import EmptyLibraryError, PreprocessingConfig, preprocess
from ..ms.spectrum import Spectrum
from ..ms.vectorize import BinningConfig, SparseVector, vectorize
from ..oms.candidates import CandidateIndex, WindowConfig
from ..oms.psm import PSM, SearchResult


class VectorSearcherBase(ABC):
    """Query loop + reference preparation for vector-space searchers."""

    name = "vector-base"

    def __init__(
        self,
        references: Sequence[Spectrum],
        preprocessing: Optional[PreprocessingConfig] = None,
        binning: Optional[BinningConfig] = None,
        windows: Optional[WindowConfig] = None,
        mode: str = "open",
    ) -> None:
        if mode not in ("open", "standard", "cascade"):
            raise ValueError(f"unknown search mode {mode!r}")
        self.preprocessing = preprocessing or PreprocessingConfig()
        self.binning = binning or BinningConfig()
        self.windows = windows or WindowConfig()
        self.mode = mode

        kept: List[Tuple[Spectrum, SparseVector]] = []
        for reference in references:
            processed = preprocess(reference, self.preprocessing)
            if processed is not None:
                kept.append((reference, vectorize(processed, self.binning)))
        if not kept:
            raise EmptyLibraryError()
        self.references = [original for original, _ in kept]
        self.reference_vectors = [vector for _, vector in kept]
        self.index = CandidateIndex(self.references, self.windows)

    @abstractmethod
    def score_candidates(
        self,
        query: Spectrum,
        query_vector: SparseVector,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Similarity of the query against each candidate position."""

    def _candidates(self, query: Spectrum, mode: str) -> np.ndarray:
        if mode == "standard":
            return self.index.select_standard(query)
        return self.index.select_open(query)

    def _best_psm(
        self,
        query: Spectrum,
        query_vector: SparseVector,
        positions: np.ndarray,
        mode: str,
    ) -> Optional[PSM]:
        if len(positions) == 0:
            return None
        scores = self.score_candidates(query, query_vector, positions)
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
        )

    def search_one(self, query: Spectrum) -> Optional[PSM]:
        """Best PSM for one query, honouring the configured mode."""
        processed = preprocess(query, self.preprocessing)
        if processed is None:
            return None
        query_vector = vectorize(processed, self.binning)
        if self.mode == "cascade":
            psm = self._best_psm(
                query, query_vector, self._candidates(query, "standard"), "standard"
            )
            if psm is not None:
                return psm
            return self._best_psm(
                query, query_vector, self._candidates(query, "open"), "open"
            )
        return self._best_psm(
            query, query_vector, self._candidates(query, self.mode), self.mode
        )

    def search(self, queries: Sequence[Spectrum]) -> SearchResult:
        """Search every query; one best PSM per matched query."""
        start = time.perf_counter()
        psms: List[PSM] = []
        unmatched = 0
        for query in queries:
            psm = self.search_one(query)
            if psm is None:
                unmatched += 1
            else:
                psms.append(psm)
        return SearchResult(
            psms=psms,
            num_queries=len(queries),
            num_unmatched=unmatched,
            elapsed_seconds=time.perf_counter() - start,
            backend_name=self.name,
        )
