"""Figure 10: Venn diagram of identified peptides across tools.

The paper validates its search quality by showing that the peptides it
identifies largely coincide with those found by ANN-SoLo and HyperOMS.
This experiment runs all three tools — our accelerator on simulated
MLC RRAM, the HyperOMS-like binary-HDC searcher, and the ANN-SoLo-like
shifted-dot-product cascade — against the *same* decoy-augmented
library at the same FDR threshold, then reports the seven Venn regions.

Expected shape: the triple intersection dominates every tool's set, and
this work's total is comparable to the baselines'.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..accelerator.accelerator import OmsAccelerator
from ..accelerator.config import AcceleratorConfig
from ..baselines.annsolo import AnnSoloSearcher
from ..baselines.hyperoms import HyperOmsSearcher
from ..hdc.spaces import HDSpaceConfig
from ..ms.decoy import append_decoys, decoy_factory
from ..ms.synthetic import SyntheticWorkload
from ..oms.fdr import grouped_fdr
from .report import ExperimentResult
from .workloads import iprg2012_like


def venn_regions(
    set_a: Set[str], set_b: Set[str], set_c: Set[str]
) -> Dict[str, int]:
    """Sizes of the 7 regions of a 3-set Venn diagram.

    Convention: ``set_a`` = ANN-SoLo, ``set_b`` = HyperOMS, ``set_c`` =
    this work.
    """
    return {
        "only_annsolo": len(set_a - set_b - set_c),
        "only_hyperoms": len(set_b - set_a - set_c),
        "only_this_work": len(set_c - set_a - set_b),
        "annsolo_and_hyperoms": len((set_a & set_b) - set_c),
        "annsolo_and_this_work": len((set_a & set_c) - set_b),
        "hyperoms_and_this_work": len((set_b & set_c) - set_a),
        "all_three": len(set_a & set_b & set_c),
    }


def run_fig10(
    workload: Optional[SyntheticWorkload] = None,
    dim: int = 2048,
    fdr_threshold: float = 0.01,
    accelerator_config: Optional[AcceleratorConfig] = None,
    seed: int = 10,
) -> ExperimentResult:
    """Run the three tools and tabulate the Venn regions."""
    if workload is None:
        workload = iprg2012_like(scale=0.3)
    library = append_decoys(
        workload.references, decoy_factory(workload.config.seed), seed=seed
    )

    def identified(search_result) -> Set[str]:
        """Peptide keys accepted at the FDR threshold for one searcher."""
        accepted = grouped_fdr(search_result.psms, fdr_threshold)
        return {psm.peptide_key for psm in accepted if psm.peptide_key}

    annsolo = AnnSoloSearcher(library)
    set_annsolo = identified(annsolo.search(workload.queries))

    hyperoms = HyperOmsSearcher(library, dim=dim, seed=seed + 1)
    set_hyperoms = identified(hyperoms.search(workload.queries))

    accelerator = OmsAccelerator(
        config=accelerator_config or AcceleratorConfig(seed=seed + 2),
        space_config=HDSpaceConfig(
            dim=dim, num_levels=16, id_precision_bits=3, seed=seed + 3
        ),
    )
    searcher = accelerator.build_searcher(library)
    set_this_work = identified(searcher.search(workload.queries))

    regions = venn_regions(set_annsolo, set_hyperoms, set_this_work)
    rows = [[region, count] for region, count in regions.items()]
    rows.append(["total_annsolo", len(set_annsolo)])
    rows.append(["total_hyperoms", len(set_hyperoms)])
    rows.append(["total_this_work", len(set_this_work)])
    union = len(set_annsolo | set_hyperoms | set_this_work)
    agreement = regions["all_three"] / union if union else 0.0
    return ExperimentResult(
        experiment_id="fig10",
        title=f"Venn of identified peptides ({workload.config.name}, {fdr_threshold:.0%} FDR)",
        headers=["region", "peptides"],
        rows=rows,
        notes={
            "triple_overlap_fraction_of_union": round(agreement, 3),
            "paper_shape": "majority of identifications shared by all three tools",
        },
    )
