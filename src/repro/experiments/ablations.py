"""Ablations of the paper's design choices.

The paper motivates four co-design decisions; each gets a controlled
experiment here:

* **chunked level hypervectors** (Section 4.2.1) — claimed to have
  "minimal impact on final results" while turning element-wise encoding
  into MVM: we compare identifications under classic vs. chunked level
  construction, and the sensing-cycle count of both dataflows;
* **multi-bit ID hypervectors** (Section 4.2.2) — claimed to improve
  quality at no hardware cost: identifications vs. ID precision on a
  clean (noise-free) pipeline;
* **differential weight mapping** (Section 4.1.1) — claimed to be "a
  better solution to challenges arising from non-linearities": MVM
  NRMSE of differential vs. single-cell (non-differential) mapping
  under identical device noise;
* **subgroup FDR** (ANN-SoLo heritage) — grouped vs. global q-values:
  how many modified identifications the grouped variant rescues.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..hdc.encoder import SpectrumEncoder
from ..hdc.spaces import HDSpace, HDSpaceConfig
from ..ms.decoy import append_decoys, decoy_factory
from ..ms.synthetic import SyntheticWorkload
from ..ms.vectorize import BinningConfig
from ..oms.batch import BatchedHDOmsSearcher
from ..oms.fdr import assign_qvalues, filter_at_fdr, grouped_fdr
from ..oms.pipeline import OmsPipeline, PipelineConfig
from ..rram.adc import ADC
from ..rram.crossbar import CrossbarConfig
from ..rram.device import DEFAULT_COMPUTE_READ_TIME_S, RRAMDeviceModel
from ..rram.metrics import normalized_rmse
from .report import ExperimentResult
from .workloads import iprg2012_like


def run_ablation_levels(
    workload: Optional[SyntheticWorkload] = None,
    dim: int = 2048,
    num_levels: int = 32,
    fdr_threshold: float = 0.01,
    seed: int = 41,
) -> ExperimentResult:
    """Chunked vs. classic level hypervectors (Section 4.2.1).

    Quality must be statistically indistinguishable; the cycle counts
    show why the chunked variant exists: element-wise encoding needs one
    cycle per *dimension* per row-group, the chunked variant one cycle
    per *chunk*.
    """
    if workload is None:
        workload = iprg2012_like(scale=0.25)
    rows = []
    max_active = CrossbarConfig().max_active_pairs
    avg_peaks = 100.0
    row_groups = -(-int(avg_peaks) // max_active)
    for chunked in (False, True):
        space_config = HDSpaceConfig(
            dim=dim,
            num_levels=num_levels,
            id_precision_bits=3,
            chunked=chunked,
            seed=seed + int(chunked),
        )
        # A fresh factory per pipeline: the simulator's draws advance.
        pipeline = OmsPipeline(
            workload.references,
            decoy_factory(workload.config.seed),
            PipelineConfig(
                space=space_config, fdr_threshold=fdr_threshold, decoy_seed=seed
            ),
        )
        ids = pipeline.run(workload.queries).num_identifications
        if chunked:
            cycles = pipeline.encoder.space.config.resolved_num_chunks * row_groups
        else:
            cycles = dim * row_groups  # element-wise: one column at a time
        rows.append(
            ["chunked" if chunked else "classic", ids, cycles]
        )
    return ExperimentResult(
        experiment_id="ablation_levels",
        title="Chunked vs. classic level hypervectors (Sec. 4.2.1)",
        headers=["level_scheme", "identifications", "encode_cycles_per_spectrum"],
        rows=rows,
        notes={
            "claim": "similar quality, ~D/num_chunks fewer encoding cycles",
            "dim": dim,
        },
    )


def run_ablation_id_precision(
    workload: Optional[SyntheticWorkload] = None,
    dim: int = 2048,
    precisions: Sequence[int] = (1, 2, 3),
    fdr_threshold: float = 0.01,
    seed: int = 43,
) -> ExperimentResult:
    """Multi-bit ID hypervectors on a clean pipeline (Section 4.2.2)."""
    if workload is None:
        workload = iprg2012_like(scale=0.25)
    rows = []
    for bits in precisions:
        config = PipelineConfig(
            space=HDSpaceConfig(
                dim=dim, num_levels=32, id_precision_bits=bits, seed=seed
            ),
            fdr_threshold=fdr_threshold,
            decoy_seed=seed,
        )
        pipeline = OmsPipeline(
            workload.references, decoy_factory(workload.config.seed), config
        )
        ids = pipeline.run(workload.queries).num_identifications
        rows.append([f"{bits}-bit", ids])
    return ExperimentResult(
        experiment_id="ablation_id_precision",
        title="ID hypervector precision vs. identifications (Sec. 4.2.2)",
        headers=["id_precision", "identifications"],
        rows=rows,
        notes={"claim": "multi-bit IDs match or beat binary at no HW cost"},
    )


def _nondifferential_mvm(
    weights: np.ndarray,
    inputs: np.ndarray,
    device: RRAMDeviceModel,
    config: CrossbarConfig,
    adc: ADC,
    rng: np.random.Generator,
    w_max: float,
) -> np.ndarray:
    """Single-cell-per-weight MVM with digital common-mode subtraction.

    ``g = ½ (1 + W/Wmax) · gmax`` on ONE cell; the common-mode term
    ``Σ x_i / 2`` is removed digitally.  Unlike the differential pair,
    gain errors (driver droop) now act on the full common-mode current,
    which is what makes this mapping fragile — exactly the paper's
    argument for Section 4.1.1.
    """
    gmax = device.config.gmax_us
    targets = 0.5 * (1.0 + weights / w_max) * gmax
    conductances = device.program_and_relax(
        targets, DEFAULT_COMPUTE_READ_TIME_S, rng
    )
    active = len(inputs)
    read = conductances + rng.normal(0.0, config.read_noise_us, conductances.shape)
    droop_scale = 1.0 - config.driver_droop * (active / config.rows)
    v_sl = (
        config.v_ref
        + (inputs @ read) / (active * gmax) * (config.v_pulse * droop_scale)
        + rng.normal(0.0, config.offset_sigma_v, weights.shape[1])
    )
    v_digital = adc.convert(v_sl)
    raw = (v_digital - config.v_ref) / config.v_pulse * active
    # Digital common-mode subtraction: MAC = (2*raw - sum(x)) * Wmax.
    return (2.0 * raw - float(inputs.sum())) * w_max


def run_ablation_weight_mapping(
    activated_rows: Sequence[int] = (16, 32, 64),
    num_outputs: int = 64,
    num_mvms: int = 25,
    seed: int = 47,
) -> ExperimentResult:
    """Differential vs. non-differential weight mapping (Section 4.1.1)."""
    from ..rram.crossbar import CrossbarArray

    rng = np.random.default_rng(seed)
    rows = []
    for active in activated_rows:
        config = CrossbarConfig(
            rows=max(256, 2 * active), cols=num_outputs, max_active_pairs=active
        )
        weights = rng.choice([-1.0, 1.0], size=(active, num_outputs))
        array = CrossbarArray(config, seed=seed + active)
        array.program(weights, w_max=1.0)
        device = RRAMDeviceModel(seed=seed + active + 1)
        adc = ADC(config.adc_config())
        nd_rng = np.random.default_rng(seed + active + 2)
        diff_errors, nondiff_errors = [], []
        for _ in range(num_mvms):
            inputs = rng.choice([-1.0, 1.0], size=active)
            exact = array.mvm_exact(inputs)
            diff_errors.append(normalized_rmse(exact, array.mvm(inputs)))
            nondiff = _nondifferential_mvm(
                weights, inputs, device, config, adc, nd_rng, 1.0
            )
            nondiff_errors.append(normalized_rmse(exact, nondiff))
        rows.append(
            [
                active,
                round(float(np.mean(diff_errors)), 4),
                round(float(np.mean(nondiff_errors)), 4),
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_weight_mapping",
        title="Differential vs. non-differential weight mapping (Sec. 4.1.1)",
        headers=["activated_rows", "differential_nrmse", "nondifferential_nrmse"],
        rows=rows,
        notes={
            "claim": "differential pairs suppress common-mode nonlinearity",
        },
    )


def run_ablation_encoding_scheme(
    workload: Optional[SyntheticWorkload] = None,
    dim: int = 2048,
    fdr_threshold: float = 0.01,
    seed: int = 59,
) -> ExperimentResult:
    """ID-Level vs. random projection vs. permutation encoding (§3.2).

    The paper argues the alternatives "may not effectively capture key
    features, such as m/z values and peak intensities"; this ablation
    runs all three encoders through the identical search + FDR stack.
    """
    from ..hdc.alt_encoders import PermutationEncoder, RandomProjectionEncoder

    if workload is None:
        workload = iprg2012_like(scale=0.25)
    library = append_decoys(
        workload.references, decoy_factory(workload.config.seed), seed=seed
    )
    binning = BinningConfig()
    space = HDSpace(
        HDSpaceConfig(
            dim=dim,
            num_bins=binning.num_bins,
            num_levels=32,
            id_precision_bits=3,
            seed=seed,
        )
    )
    encoders = [
        ("id-level", SpectrumEncoder(space, binning)),
        ("random-projection", RandomProjectionEncoder(space, binning)),
        ("permutation", PermutationEncoder(space, binning)),
    ]
    rows = []
    for name, encoder in encoders:
        result = BatchedHDOmsSearcher(encoder, library).search(workload.queries)
        accepted = grouped_fdr(result.psms, fdr_threshold)
        ids = len({psm.peptide_key for psm in accepted if psm.peptide_key})
        correct = sum(
            1
            for psm in accepted
            if workload.truth.get(psm.query_id) == psm.peptide_key
        )
        rows.append([name, ids, correct])
    return ExperimentResult(
        experiment_id="ablation_encoding_scheme",
        title="Encoding scheme comparison (Sec. 3.2)",
        headers=["encoder", "identifications", "correct_psms"],
        rows=rows,
        notes={
            "claim": "ID-Level captures m/z+intensity best",
            "dim": dim,
        },
    )


def run_ablation_fdr(
    workload: Optional[SyntheticWorkload] = None,
    dim: int = 2048,
    fdr_threshold: float = 0.01,
    seed: int = 53,
) -> ExperimentResult:
    """Grouped (subgroup) vs. global FDR control."""
    if workload is None:
        workload = iprg2012_like(scale=0.25)
    library = append_decoys(
        workload.references, decoy_factory(workload.config.seed), seed=seed
    )
    binning = BinningConfig()
    space = HDSpace(
        HDSpaceConfig(
            dim=dim, num_bins=binning.num_bins, id_precision_bits=3, seed=seed
        )
    )
    searcher = BatchedHDOmsSearcher(SpectrumEncoder(space, binning), library)
    result = searcher.search(workload.queries)
    rows = []
    for name in ("global", "grouped"):
        if name == "grouped":
            accepted = grouped_fdr(list(result.psms), fdr_threshold)
        else:
            psms = list(result.psms)
            assign_qvalues(psms)
            accepted = filter_at_fdr(psms, fdr_threshold)
        modified = sum(1 for psm in accepted if psm.is_modified_match)
        correct = sum(
            1
            for psm in accepted
            if workload.truth.get(psm.query_id) == psm.peptide_key
        )
        rows.append([name, len(accepted), modified, correct])
    return ExperimentResult(
        experiment_id="ablation_fdr",
        title="Global vs. subgroup FDR control",
        headers=["fdr_variant", "accepted_psms", "modified_psms", "correct_psms"],
        rows=rows,
        notes={"claim": "subgroup FDR rescues modified identifications"},
    )
