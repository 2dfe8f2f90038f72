"""End-to-end OMS pipeline (paper Figure 2).

``preprocess -> encode -> hamming search -> FDR filter`` wired together
with decoy generation, configurable in every stage, and reporting the
numbers the paper's evaluation uses (identifications at 1% FDR, plus
ground-truth precision/recall that only a synthetic workload can give).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

from ..constants import DEFAULT_FDR_THRESHOLD
from ..hdc.encoder import SpectrumEncoder
from ..hdc.spaces import HDSpace, HDSpaceConfig
from ..ms.decoy import append_decoys, decoy_factory
from ..ms.preprocessing import PreprocessingConfig
from ..ms.spectrum import Spectrum
from ..ms.vectorize import BinningConfig
from .batch import BatchedHDOmsSearcher
from .candidates import HDSearchConfig, WindowConfig
from .fdr import assign_qvalues, filter_at_fdr, grouped_fdr
from .psm import PSM, SearchResult, evaluate_against_truth

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..ms.synthetic import SyntheticWorkload


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the end-to-end pipeline in one place."""

    binning: BinningConfig = field(default_factory=BinningConfig)
    space: HDSpaceConfig = field(default_factory=HDSpaceConfig)
    preprocessing: PreprocessingConfig = field(default_factory=PreprocessingConfig)
    windows: WindowConfig = field(default_factory=WindowConfig)
    search: HDSearchConfig = field(default_factory=HDSearchConfig)
    fdr_threshold: float = DEFAULT_FDR_THRESHOLD
    use_grouped_fdr: bool = True
    decoy_method: str = "shuffle"
    decoy_seed: int = 99

    def resolved_space(self) -> HDSpaceConfig:
        """Space config with ``num_bins`` synced to the binning config."""
        return replace(self.space, num_bins=self.binning.num_bins)


@dataclass
class PipelineResult:
    """Outcome of one pipeline run."""

    search_result: SearchResult
    accepted_psms: List[PSM]
    identified_peptides: Set[str]
    evaluation: Dict[str, float]
    timings: Dict[str, float]
    num_references_with_decoys: int

    @property
    def num_identifications(self) -> int:
        """Unique peptides accepted at the FDR threshold (Figures 10-13)."""
        return len(self.identified_peptides)


def _search_kwargs(search: HDSearchConfig) -> Dict:
    """The :class:`HDSearchConfig` fields as searcher keyword arguments."""
    return {item.name: getattr(search, item.name) for item in fields(search)}


class OmsPipeline:
    """Reusable pipeline bound to one reference library.

    Construction cost (decoy generation + reference encoding) is paid
    once; ``run`` can then be called with different query sets.  The
    search stage is :class:`~repro.oms.batch.BatchedHDOmsSearcher`, the
    fan-out core over one in-process part.
    """

    def __init__(
        self,
        references: Sequence[Spectrum],
        decoy_factory: Callable,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        timings: Dict[str, float] = {}

        start = time.perf_counter()
        self.library: Optional[List[Spectrum]] = append_decoys(
            list(references),
            decoy_factory,
            seed=self.config.decoy_seed,
            method=self.config.decoy_method,
        )
        timings["decoy_generation"] = time.perf_counter() - start

        start = time.perf_counter()
        space = HDSpace(self.config.resolved_space())
        self.encoder = SpectrumEncoder(space, self.config.binning)
        self.searcher = BatchedHDOmsSearcher(
            self.encoder,
            self.library,
            preprocessing=self.config.preprocessing,
            windows=self.config.windows,
            **_search_kwargs(self.config.search),
        )
        timings["reference_encoding"] = time.perf_counter() - start
        self._setup_timings = timings

    @classmethod
    def from_index(
        cls, index, config: Optional[PipelineConfig] = None
    ) -> "OmsPipeline":
        """Bind the pipeline to a persisted :class:`~repro.index.LibraryIndex`.

        The library in the index is used as-is (decoys are expected to
        have been appended before the index was built) and reference
        encoding is skipped entirely.  The ``space``/``binning``/
        ``preprocessing`` members of *config* are superseded by the
        index provenance; ``windows``, ``search`` and the FDR knobs
        still apply.  ``library`` is ``None``: the searcher builds the
        record of a winning row only.
        """
        pipeline = cls.__new__(cls)
        pipeline.config = config or PipelineConfig()
        start = time.perf_counter()
        pipeline.library = None
        pipeline.searcher = BatchedHDOmsSearcher.from_index(
            index,
            windows=pipeline.config.windows,
            **_search_kwargs(pipeline.config.search),
        )
        pipeline.encoder = pipeline.searcher.encoder
        pipeline._setup_timings = {
            "decoy_generation": 0.0,
            "reference_encoding": 0.0,
            "index_load": time.perf_counter() - start,
        }
        return pipeline

    @classmethod
    def from_workload(
        cls, workload: SyntheticWorkload, config: Optional[PipelineConfig] = None
    ) -> "OmsPipeline":
        """Convenience constructor for synthetic workloads."""
        return cls(
            workload.references, decoy_factory(workload.config.seed), config=config
        )

    def run(
        self,
        queries: Sequence[Spectrum],
        truth: Optional[Dict[str, Optional[str]]] = None,
    ) -> PipelineResult:
        """Search *queries* and apply the FDR filter."""
        timings = dict(self._setup_timings)

        start = time.perf_counter()
        search_result = self.searcher.search(queries)
        timings["search"] = time.perf_counter() - start

        start = time.perf_counter()
        if self.config.use_grouped_fdr:
            accepted = grouped_fdr(search_result.psms, self.config.fdr_threshold)
        else:
            assign_qvalues(search_result.psms)
            accepted = filter_at_fdr(search_result.psms, self.config.fdr_threshold)
        timings["fdr_filter"] = time.perf_counter() - start

        identified = {
            psm.peptide_key for psm in accepted if psm.peptide_key is not None
        }
        evaluation = (
            evaluate_against_truth(accepted, truth) if truth is not None else {}
        )
        return PipelineResult(
            search_result=search_result,
            accepted_psms=accepted,
            identified_peptides=identified,
            evaluation=evaluation,
            timings=timings,
            num_references_with_decoys=(
                self.searcher.num_references
                if self.library is None
                else len(self.library)
            ),
        )

    def run_workload(self, workload: SyntheticWorkload) -> PipelineResult:
        """Run against a workload's queries with its ground truth."""
        return self.run(workload.queries, workload.truth)
