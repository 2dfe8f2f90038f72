"""Tests for the batched searcher and the write-verify loop."""

import numpy as np
import pytest

from repro.oms import BatchedHDOmsSearcher
from repro.oms.search import DenseBackend, HDOmsSearcher, HDSearchConfig
from repro.rram.writeverify import (
    WriteVerifyConfig,
    residual_sigma_us,
    write_verify,
)


@pytest.fixture(scope="module")
def batch_setup():
    from repro.hdc.encoder import SpectrumEncoder
    from repro.hdc.spaces import HDSpace, HDSpaceConfig
    from repro.ms.synthetic import WorkloadConfig, build_workload
    from repro.ms.vectorize import BinningConfig

    workload = build_workload(
        WorkloadConfig(name="batch", num_references=150, num_queries=40, seed=61)
    )
    binning = BinningConfig()
    space = HDSpace(
        HDSpaceConfig(
            dim=1024,
            num_bins=binning.num_bins,
            num_levels=16,
            id_precision_bits=3,
            seed=8,
        )
    )
    encoder = SpectrumEncoder(space, binning)
    return workload, encoder


class TestBatchedSearcher:
    def test_identical_psms_to_per_query_path(self, batch_setup):
        workload, encoder = batch_setup
        per_query = HDOmsSearcher(
            encoder, workload.references, backend=DenseBackend()
        ).search(workload.queries)
        batched = BatchedHDOmsSearcher(
            encoder, workload.references
        ).search(workload.queries)
        assert len(per_query.psms) == len(batched.psms)
        for a, b in zip(per_query.psms, batched.psms):
            assert a.query_id == b.query_id
            assert a.reference_id == b.reference_id
            assert a.score == b.score
            assert a.is_decoy == b.is_decoy

    def test_standard_mode_matches(self, batch_setup):
        workload, encoder = batch_setup
        per_query = HDOmsSearcher(
            encoder,
            workload.references,
            config=HDSearchConfig(mode="standard"),
        ).search(workload.queries)
        batched = BatchedHDOmsSearcher(
            encoder, workload.references, mode="standard"
        ).search(workload.queries)
        assert [p.reference_id for p in per_query.psms] == [
            p.reference_id for p in batched.psms
        ]
        assert per_query.num_unmatched == batched.num_unmatched

    @pytest.mark.parametrize("min_candidates", [1, 2])
    def test_cascade_and_min_candidates_match(self, batch_setup, min_candidates):
        workload, encoder = batch_setup
        per_query = HDOmsSearcher(
            encoder,
            workload.references,
            config=HDSearchConfig(mode="cascade", min_candidates=min_candidates),
        ).search(workload.queries)
        batched = BatchedHDOmsSearcher(
            encoder,
            workload.references,
            mode="cascade",
            min_candidates=min_candidates,
        ).search(workload.queries)
        assert batched.psms == per_query.psms
        # One-row standard windows pass the gate of 1 and fail the gate of 2.
        assert {psm.mode for psm in batched.psms} == (
            {"standard", "open"} if min_candidates == 1 else {"open"}
        )

    def test_unknown_mode_rejected(self, batch_setup):
        workload, encoder = batch_setup
        with pytest.raises(ValueError, match="mode"):
            BatchedHDOmsSearcher(encoder, workload.references, mode="sideways")

    def test_backend_name(self, batch_setup):
        workload, encoder = batch_setup
        result = BatchedHDOmsSearcher(
            encoder, workload.references
        ).search(workload.queries[:3])
        assert result.backend_name == "shardedx1"

    def test_reference_ber_injection(self, batch_setup):
        workload, encoder = batch_setup
        clean = BatchedHDOmsSearcher(encoder, workload.references).search(
            workload.queries[:10]
        )
        noisy = BatchedHDOmsSearcher(
            encoder, workload.references, reference_ber=0.25
        ).search(workload.queries[:10])
        assert np.mean(
            [psm.score for psm in noisy.psms]
        ) < np.mean([psm.score for psm in clean.psms])


class TestWriteVerify:
    def test_converges_within_tolerance(self, rng):
        config = WriteVerifyConfig()
        targets = rng.uniform(0, 50, 5000)
        result = write_verify(targets, config, rng)
        assert result.convergence_rate > 0.95
        errors = np.abs(result.conductances_us - targets)
        assert np.median(errors) < config.tolerance_us

    def test_more_iterations_tighter_residual(self):
        loose = residual_sigma_us(
            config=WriteVerifyConfig(max_iterations=1), seed=4
        )
        tight = residual_sigma_us(
            config=WriteVerifyConfig(max_iterations=10), seed=4
        )
        assert tight < 0.5 * loose

    def test_residual_matches_device_model_assumption(self):
        """The default loop lands near DeviceConfig.sigma_program_us."""
        from repro.rram.device import DeviceConfig

        residual = residual_sigma_us(seed=1)
        assumed = DeviceConfig().sigma_program_us
        assert residual == pytest.approx(assumed, rel=0.6)

    def test_iteration_counts_bounded(self, rng):
        config = WriteVerifyConfig(max_iterations=5)
        result = write_verify(rng.uniform(0, 50, 1000), config, rng)
        assert result.iterations.min() >= 1
        assert result.iterations.max() <= 5

    def test_energy_scales_with_iterations(self, rng):
        config = WriteVerifyConfig()
        targets = rng.uniform(0, 50, 500)
        result = write_verify(targets, config, rng)
        assert result.energy_pj(config) == pytest.approx(
            result.iterations.sum() * config.pulse_energy_pj
        )
        assert result.time_ns(config) > 0

    def test_tight_tolerance_needs_more_pulses(self):
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        targets = np.full(2000, 25.0)
        loose = write_verify(
            targets, WriteVerifyConfig(tolerance_us=3.0), rng_a
        )
        tight = write_verify(
            targets, WriteVerifyConfig(tolerance_us=0.5), rng_b
        )
        assert tight.mean_iterations > loose.mean_iterations

    def test_conductances_stay_physical(self, rng):
        result = write_verify(np.full(500, 49.9), None, rng)
        assert result.conductances_us.max() <= 50.0
        assert result.conductances_us.min() >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WriteVerifyConfig(tolerance_us=0)
        with pytest.raises(ValueError):
            WriteVerifyConfig(max_iterations=0)
        with pytest.raises(ValueError):
            WriteVerifyConfig(correction_gain=0)
