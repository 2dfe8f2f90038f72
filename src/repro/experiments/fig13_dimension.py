"""Figure 13: identifications vs. HD dimension, ideal vs. in-RRAM.

Sweeps the hypervector dimension (the paper uses 8192 down to 1024) and
compares the *ideal* pipeline (exact digital encoding and search) with
the *in-RRAM* pipeline at 3 bits/cell (in-memory encoding, analog
search, and the dense query-hypervector storage round trip).

Expected shape: identifications fall as the dimension shrinks (lower
dimension -> less separability and more noise sensitivity), with the
in-RRAM curve at or below the ideal curve, converging at high D.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..accelerator.accelerator import OmsAccelerator
from ..accelerator.config import AcceleratorConfig
from ..hdc.encoder import SpectrumEncoder
from ..hdc.spaces import HDSpace, HDSpaceConfig
from ..ms.decoy import append_decoys, decoy_factory
from ..ms.synthetic import SyntheticWorkload
from ..ms.vectorize import BinningConfig
from ..store.search import BatchedHDOmsSearcher
from ..oms.fdr import grouped_fdr
from .report import ExperimentResult
from .workloads import iprg2012_like


def run_fig13(
    workload: Optional[SyntheticWorkload] = None,
    dims: Sequence[int] = (4096, 2048, 1024, 512, 256),
    id_precision_bits: int = 3,
    fdr_threshold: float = 0.01,
    storage_bits_per_cell: int = 3,
    seed: int = 13,
) -> ExperimentResult:
    """Identifications vs. dimension for ideal and in-RRAM pipelines."""
    if workload is None:
        workload = iprg2012_like(scale=0.2)
    library = append_decoys(
        workload.references, decoy_factory(workload.config.seed), seed=seed
    )
    binning = BinningConfig()
    rows = []
    for dim in dims:
        space_config = HDSpaceConfig(
            dim=dim,
            num_bins=binning.num_bins,
            num_levels=16,
            id_precision_bits=id_precision_bits,
            chunked=True,
            seed=seed + dim,
        )
        # Ideal: exact digital encode + packed Hamming search.
        ideal_searcher = BatchedHDOmsSearcher(
            SpectrumEncoder(HDSpace(space_config), binning), library
        )
        # In-RRAM: analog encode + analog search + MLC storage round trip.
        accelerator = OmsAccelerator(
            config=AcceleratorConfig(
                storage_bits_per_cell=storage_bits_per_cell, seed=seed + dim
            ),
            space_config=space_config,
            binning=binning,
            store_query_hypervectors=True,
        )
        rram_searcher = accelerator.build_searcher(library)
        counts = []
        for searcher in (ideal_searcher, rram_searcher):
            result = searcher.search(workload.queries)
            accepted = grouped_fdr(result.psms, fdr_threshold)
            counts.append(len({psm.peptide_key for psm in accepted if psm.peptide_key}))
        rows.append([dim, *counts])
    return ExperimentResult(
        experiment_id="fig13",
        title=f"Identifications vs. HD dimension ({workload.config.name}, "
        f"{id_precision_bits}-bit IDs)",
        headers=["hd_dim", "ideal", f"in_rram_{storage_bits_per_cell}bpc"],
        rows=rows,
        notes={
            "paper_shape": "identifications fall as D shrinks; RRAM curve <= ideal",
            "num_queries": len(workload.queries),
            "library_with_decoys": len(library),
        },
    )
