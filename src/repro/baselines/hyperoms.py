"""HyperOMS-style baseline: binary HDC open search (Kang et al., PACT'22).

HyperOMS is the GPU accelerator the paper benchmarks against: the same
ID-Level encoding pipeline but with strictly *binary* (1-bit) ID
hypervectors, classic (non-chunked) level hypervectors, and exact
digital Hamming search.  This wrapper configures the fan-out core
(:class:`~repro.oms.batch.BatchedHDOmsSearcher`) accordingly, with an
independent seed so its codebooks differ from this work's — matching
the reality that two tools' random projections are uncorrelated.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hdc.encoder import SpectrumEncoder
from ..hdc.spaces import HDSpace, HDSpaceConfig
from ..ms.preprocessing import PreprocessingConfig
from ..ms.spectrum import Spectrum
from ..ms.vectorize import BinningConfig
from ..oms.batch import BatchedHDOmsSearcher
from ..oms.candidates import WindowConfig
from ..oms.psm import SearchResult


class HyperOmsSearcher:
    """Binary-HDC open searcher mirroring HyperOMS's configuration."""

    name = "hyperoms"

    def __init__(
        self,
        references: Sequence[Spectrum],
        dim: int = 8192,
        num_levels: int = 32,
        seed: int = 2022,
        preprocessing: Optional[PreprocessingConfig] = None,
        binning: Optional[BinningConfig] = None,
        windows: Optional[WindowConfig] = None,
        mode: str = "open",
    ) -> None:
        binning = binning or BinningConfig()
        space = HDSpace(
            HDSpaceConfig(
                dim=dim,
                num_bins=binning.num_bins,
                num_levels=num_levels,
                id_precision_bits=1,
                chunked=False,
                seed=seed,
            )
        )
        encoder = SpectrumEncoder(space, binning)
        self._searcher = BatchedHDOmsSearcher(
            encoder,
            references,
            preprocessing=preprocessing,
            windows=windows,
            mode=mode,
        )

    @property
    def num_references(self) -> int:
        """Number of reference spectra in the library."""
        return self._searcher.num_references

    def search(self, queries: Sequence[Spectrum]) -> SearchResult:
        """Delegate to the fan-out core."""
        result = self._searcher.search(queries)
        result.backend_name = self.name
        return result

    def search_one(self, query: Spectrum):
        """Best PSM for a single query."""
        psms = self._searcher.search([query]).psms
        return psms[0] if psms else None
