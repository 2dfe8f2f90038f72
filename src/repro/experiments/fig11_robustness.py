"""Figure 11: HD robustness — identifications vs. injected bit errors.

Random sign flips at rates {0.15%, 1%, 5%, 10%, 20%} are injected into
both the stored reference hypervectors and each query hypervector
("errors for encoding and search", Section 5.3.2), for ID precisions of
1/2/3 bits.  The paper's shape: identification counts stay essentially
flat up to ~10% BER and drop at 20%, with the multi-bit ID scheme
consistently identifying more peptides.

References are encoded once per precision into a library index; each
BER point then searches that index on the fan-out core with its own
noise seed, which flips the packed reference and query rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hdc.spaces import HDSpaceConfig
from ..index.library import LibraryIndex
from ..ms.decoy import append_decoys, decoy_factory
from ..ms.synthetic import SyntheticWorkload
from ..ms.vectorize import BinningConfig
from ..oms.batch import BatchedHDOmsSearcher
from ..oms.fdr import grouped_fdr
from .report import ExperimentResult
from .workloads import iprg2012_like

#: The paper's BER sweep points.
PAPER_BER_POINTS = (0.0015, 0.01, 0.05, 0.10, 0.20)


def run_fig11(
    workload: Optional[SyntheticWorkload] = None,
    dim: int = 4096,
    bers: Sequence[float] = PAPER_BER_POINTS,
    id_precisions: Sequence[int] = (1, 2, 3),
    num_levels: int = 32,
    fdr_threshold: float = 0.01,
    seed: int = 11,
) -> ExperimentResult:
    """Sweep BER x ID precision on one workload."""
    if workload is None:
        workload = iprg2012_like(scale=0.5)
    binning = BinningConfig()
    library = append_decoys(
        workload.references, decoy_factory(workload.config.seed), seed=seed
    )
    columns = {}
    for precision in id_precisions:
        space_config = HDSpaceConfig(
            dim=dim,
            num_levels=num_levels,
            id_precision_bits=precision,
            chunked=True,
            seed=seed + precision,
        )
        index = LibraryIndex.build(library, space_config=space_config, binning=binning)
        columns[precision] = []
        for point, ber in enumerate(bers):
            searcher = BatchedHDOmsSearcher.from_index(
                index,
                query_ber=ber,
                reference_ber=ber,
                noise_seed=seed + 100 * precision + point,
            )
            accepted = grouped_fdr(searcher.search(workload.queries).psms, fdr_threshold)
            columns[precision].append(
                len({psm.peptide_key for psm in accepted if psm.peptide_key})
            )
    rows = [
        [f"{ber:.2%}"] + [columns[precision][point] for precision in id_precisions]
        for point, ber in enumerate(bers)
    ]
    return ExperimentResult(
        experiment_id="fig11",
        title=f"HD robustness on {workload.config.name}: identifications vs. BER",
        headers=["BER"]
        + [f"ID_precision_{precision}bit" for precision in id_precisions],
        rows=rows,
        notes={
            "paper_shape": "flat to ~10% BER, drop at 20%; multi-bit IDs identify more",
            "dim": dim,
        },
    )
