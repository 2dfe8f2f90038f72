"""Cross-module integration tests: the paper's claims end to end."""

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, OmsAccelerator
from repro.hdc import HDSpaceConfig
from repro.ms import append_decoys, build_workload, decoy_factory, WorkloadConfig
from repro.oms import (
    HDSearchConfig,
    OmsPipeline,
    PipelineConfig,
    grouped_fdr,
)


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        WorkloadConfig(
            name="integration",
            num_references=250,
            num_queries=60,
            modification_probability=0.5,
            foreign_fraction=0.15,
            seed=2024,
        )
    )


class TestOpenVsStandard:
    """Section 1: OMS's reason to exist."""

    def test_open_search_recovers_modified_peptides(self, workload):
        results = {}
        for mode in ("standard", "open"):
            config = PipelineConfig(
                space=HDSpaceConfig(dim=1024, id_precision_bits=3, seed=3),
                search=HDSearchConfig(mode=mode),
            )
            pipeline = OmsPipeline.from_workload(workload, config)
            results[mode] = pipeline.run_workload(workload)
        modified_open = sum(
            1 for psm in results["open"].accepted_psms if psm.is_modified_match
        )
        modified_standard = sum(
            1
            for psm in results["standard"].accepted_psms
            if psm.is_modified_match
        )
        assert modified_standard == 0  # narrow window cannot see PTMs
        assert modified_open > 0
        assert (
            results["open"].num_identifications
            > results["standard"].num_identifications
        )

    def test_foreign_queries_mostly_rejected(self, workload):
        config = PipelineConfig(
            space=HDSpaceConfig(dim=1024, id_precision_bits=3, seed=3)
        )
        pipeline = OmsPipeline.from_workload(workload, config)
        result = pipeline.run_workload(workload)
        foreign_accepted = sum(
            1
            for psm in result.accepted_psms
            if workload.truth.get(psm.query_id) is None
        )
        # At 1% FDR nearly all foreign spectra must be filtered out.
        assert foreign_accepted <= max(2, 0.05 * len(result.accepted_psms))


class TestHDRobustnessClaim:
    """Abstract: 'tolerate up to 10% memory errors'."""

    def test_identifications_survive_10pct_ber(self, workload):
        clean_config = PipelineConfig(
            space=HDSpaceConfig(dim=2048, id_precision_bits=3, seed=3)
        )
        noisy_config = PipelineConfig(
            space=HDSpaceConfig(dim=2048, id_precision_bits=3, seed=3),
            search=HDSearchConfig(query_ber=0.10, reference_ber=0.10),
        )
        clean = OmsPipeline.from_workload(workload, clean_config).run_workload(
            workload
        )
        noisy = OmsPipeline.from_workload(workload, noisy_config).run_workload(
            workload
        )
        assert noisy.num_identifications >= 0.75 * clean.num_identifications
        # Accuracy of what is identified barely moves.
        if noisy.accepted_psms:
            assert noisy.evaluation["precision"] >= 0.85


class TestAcceleratorEquivalence:
    """Section 5.3.1: the RRAM path agrees with the digital tools."""

    def test_rram_and_digital_agree_on_most_identifications(self, workload):
        library = append_decoys(
            workload.references, decoy_factory(workload.config.seed), seed=4
        )
        space_config = HDSpaceConfig(
            dim=1024, num_levels=16, id_precision_bits=3, seed=5
        )
        digital = OmsPipeline(
            library[: len(workload.references)],
            decoy_factory(workload.config.seed),
            PipelineConfig(space=space_config),
        ).run_workload(workload)

        accelerator = OmsAccelerator(
            config=AcceleratorConfig(seed=6), space_config=space_config
        )
        searcher = accelerator.build_searcher(library)
        accepted = grouped_fdr(searcher.search(workload.queries).psms, 0.01)
        rram_ids = {psm.peptide_key for psm in accepted if psm.peptide_key}

        digital_ids = digital.identified_peptides
        if digital_ids:
            overlap = len(rram_ids & digital_ids) / len(digital_ids)
            assert overlap >= 0.7


class TestStorageDensityClaim:
    """Abstract: '3x better storage capacity per area'."""

    def test_mlc_stores_3x_with_tolerable_errors(self, rng):
        from repro.rram import HypervectorStore, MLCRRAMChip

        chip = MLCRRAMChip(seed=3)
        dim = 2048
        assert chip.storage_capacity_hypervectors(
            dim, 3
        ) >= 2.99 * chip.storage_capacity_hypervectors(dim, 1)
        store = chip.new_store(bits_per_cell=3)
        hvs = (rng.integers(0, 2, (16, dim)) * 2 - 1).astype(np.int8)
        store.write(hvs)
        ber = store.read(2 * 3600.0).bit_error_rate
        # Within the ~10% tolerance demonstrated by Figure 11.
        assert ber < 0.15
