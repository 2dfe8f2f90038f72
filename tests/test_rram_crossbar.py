"""Tests for the crossbar array, ADC, tiling, and chip facade."""

import numpy as np
import pytest

from repro.rram.adc import ADC, ADCConfig
from repro.rram.chip import MLCRRAMChip, PAPER_CHIP_CELLS
from repro.rram.crossbar import CrossbarArray, CrossbarConfig
from repro.rram.device import DeviceConfig, RRAMDeviceModel
from repro.rram.mapping import TiledMatrix, plan_tiles
from repro.rram.metrics import normalized_rmse

#: A device with every noise source disabled, for exactness tests.
NOISELESS = DeviceConfig(
    sigma_program_us=0.0,
    sigma_relax_us_per_decade=0.0,
    tail_probability_per_decade=0.0,
    drift_fraction_per_decade=0.0,
)

#: A crossbar with all circuit non-idealities disabled.
CLEAN_XBAR = CrossbarConfig(
    read_noise_us=0.0, driver_droop=0.0, offset_sigma_v=0.0, adc_bits=16
)


class TestADC:
    def test_quantize_dequantize_monotone(self):
        adc = ADC(ADCConfig(bits=8, v_min=0.4, v_max=0.6))
        voltages = np.linspace(0.4, 0.6, 100)
        codes = adc.quantize(voltages)
        assert np.all(np.diff(codes) >= 0)
        assert codes.min() == 0
        assert codes.max() == 255

    def test_clipping(self):
        adc = ADC(ADCConfig(bits=4, v_min=0.4, v_max=0.6))
        assert adc.quantize(np.array([0.0]))[0] == 0
        assert adc.quantize(np.array([1.0]))[0] == 15

    def test_convert_error_bounded_by_step(self):
        adc = ADC(ADCConfig(bits=8, v_min=0.4, v_max=0.6))
        voltages = np.random.default_rng(0).uniform(0.4, 0.6, 1000)
        reconstructed = adc.convert(voltages)
        assert np.abs(reconstructed - voltages).max() <= adc.config.step

    @pytest.mark.parametrize("bits", [1, 3, 8])
    def test_dequantize_returns_each_codes_bin_centre(self, bits):
        # bits=1 is the sign-only ADC encoding columns may use.
        adc = ADC(ADCConfig(bits=bits, v_min=0.4, v_max=0.6))
        codes = np.arange(adc.config.num_codes)
        assert adc.config.num_codes == 2**bits
        centres = adc.dequantize(codes)
        assert np.allclose(np.diff(centres), adc.config.step)
        assert centres[0] == pytest.approx(0.4 + adc.config.step / 2)
        assert adc.quantize(centres).tolist() == codes.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            ADCConfig(bits=0)
        with pytest.raises(ValueError):
            ADCConfig(v_min=1.0, v_max=0.5)


class TestCrossbarArray:
    def test_noiseless_mvm_is_exact(self, rng):
        array = CrossbarArray(
            CLEAN_XBAR, RRAMDeviceModel(NOISELESS, seed=1), seed=2
        )
        weights = rng.choice([-1.0, 1.0], size=(64, 32))
        array.program(weights, w_max=1.0)
        inputs = rng.choice([-1.0, 1.0], size=64)
        estimate = array.mvm(inputs)
        exact = array.mvm_exact(inputs)
        assert np.allclose(estimate, exact, atol=0.05)

    def test_differential_mapping_equations(self, rng):
        """g± must follow Eqs. 2-3 exactly (noiseless device)."""
        array = CrossbarArray(
            CLEAN_XBAR, RRAMDeviceModel(NOISELESS, seed=1), seed=2
        )
        weights = np.array([[1.0, -1.0, 0.5, 0.0]]).T @ np.ones((1, 3))
        array.program(weights, w_max=1.0)
        gmax = array.device.config.gmax_us
        expected_plus = 0.5 * (1 + weights) * gmax
        expected_minus = 0.5 * (1 - weights) * gmax
        assert np.allclose(array._g_plus, expected_plus)
        assert np.allclose(array._g_minus, expected_minus)

    def test_noisy_mvm_error_grows_with_active_rows(self, rng):
        errors = []
        for active in (16, 128):
            config = CrossbarConfig(rows=256, cols=64, max_active_pairs=active)
            array = CrossbarArray(config, seed=5)
            weights = rng.choice([-1.0, 1.0], size=(active, 64))
            array.program(weights, w_max=1.0)
            trial_errors = []
            for _ in range(20):
                inputs = rng.choice([-1.0, 1.0], size=active)
                trial_errors.append(
                    normalized_rmse(array.mvm_exact(inputs), array.mvm(inputs))
                )
            errors.append(np.mean(trial_errors))
        assert errors[1] > errors[0]

    def test_row_chunking_counts_cycles(self, rng):
        config = CrossbarConfig(rows=256, cols=8, max_active_pairs=32)
        array = CrossbarArray(config, seed=1)
        weights = rng.choice([-1.0, 1.0], size=(100, 8))
        array.program(weights)
        array.mvm(rng.choice([-1.0, 1.0], size=100))
        # ceil(100/32) = 4 chunks.
        assert array.stats.mvm_cycles == 4
        assert array.stats.adc_conversions == 4 * 8

    def test_capacity_checks(self, rng):
        config = CrossbarConfig(rows=64, cols=16, max_active_pairs=16)
        array = CrossbarArray(config, seed=1)
        with pytest.raises(ValueError, match="exceed array capacity"):
            array.program(np.ones((33, 8)))  # > rows/2 pairs
        with pytest.raises(ValueError, match="columns"):
            array.program(np.ones((8, 20)))

    def test_weight_range_check(self):
        array = CrossbarArray(seed=1)
        with pytest.raises(ValueError, match="exceed w_max"):
            array.program(np.full((4, 4), 2.0), w_max=1.0)

    def test_input_validation(self, rng):
        array = CrossbarArray(seed=1)
        array.program(rng.choice([-1.0, 1.0], size=(8, 4)))
        with pytest.raises(ValueError, match="shape"):
            array.mvm(np.ones(5))
        with pytest.raises(ValueError, match="lie in"):
            array.mvm(np.full(8, 3.0))
        with pytest.raises(RuntimeError):
            CrossbarArray(seed=2).mvm(np.ones(4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrossbarConfig(rows=255)  # odd
        with pytest.raises(ValueError):
            CrossbarConfig(max_active_pairs=1000)
        with pytest.raises(ValueError):
            CrossbarConfig(driver_droop=1.5)


class TestTiledMatrix:
    def test_plan_tiles(self):
        config = CrossbarConfig(rows=256, cols=256, max_active_pairs=64)
        plan = plan_tiles(300, 600, config)
        assert plan.row_tiles == 3  # ceil(300/128)
        assert plan.col_tiles == 3  # ceil(600/256)
        assert plan.num_tiles == 9

    def test_tiled_noiseless_mvm_exact(self, rng):
        weights = rng.choice([-1.0, 1.0], size=(300, 40))
        tiled = TiledMatrix(
            weights,
            w_max=1.0,
            config=CrossbarConfig(
                rows=128,
                cols=32,
                max_active_pairs=64,
                read_noise_us=0.0,
                driver_droop=0.0,
                offset_sigma_v=0.0,
                adc_bits=16,
            ),
            device=RRAMDeviceModel(NOISELESS, seed=1),
            seed=2,
        )
        inputs = rng.choice([-1.0, 1.0], size=300)
        assert np.allclose(tiled.mvm(inputs), inputs @ weights, atol=0.5)
        assert np.allclose(tiled.mvm_exact(inputs), inputs @ weights)

    def test_cycle_accounting(self, rng):
        weights = rng.choice([-1.0, 1.0], size=(300, 40))
        config = CrossbarConfig(rows=128, cols=32, max_active_pairs=32)
        tiled = TiledMatrix(weights, config=config, seed=3)
        # 128 rows = 64 differential pairs per tile -> 5 row tiles
        # (64*4 + 44), each sensed in ceil(pairs/32) = 2 chunks.
        assert tiled.cycles_per_mvm() == 5 * 2
        assert tiled.total_cells() == 2 * 300 * 40

    def test_input_shape_validation(self, rng):
        tiled = TiledMatrix(np.ones((10, 4)), seed=1)
        with pytest.raises(ValueError):
            tiled.mvm(np.ones(11))


class TestChip:
    def test_inventory_tracking(self, rng):
        chip = MLCRRAMChip(seed=1)
        store = chip.new_store(bits_per_cell=3)
        hvs = (rng.integers(0, 2, (8, 300)) * 2 - 1).astype(np.int8)
        store.write(hvs)
        chip.new_compute_matrix(rng.choice([-1.0, 1.0], size=(50, 20)))
        inventory = chip.refresh_inventory()
        assert inventory.stores == 1
        assert inventory.matrices == 1
        assert inventory.storage_cells == 8 * 100  # 300 bits at 3 b/cell
        assert inventory.compute_cells == 2 * 50 * 20
        assert 0 < chip.utilization < 1

    def test_storage_capacity_triples_at_3bpc(self):
        slc = MLCRRAMChip(seed=1).storage_capacity_hypervectors(8192, 1)
        mlc = MLCRRAMChip(seed=1).storage_capacity_hypervectors(8192, 3)
        assert slc == PAPER_CHIP_CELLS // 8192
        assert mlc >= 2.99 * slc

    def test_allocations_use_distinct_seeds(self, rng):
        chip = MLCRRAMChip(seed=1)
        a = chip.new_store(2)
        b = chip.new_store(2)
        hvs = (rng.integers(0, 2, (4, 256)) * 2 - 1).astype(np.int8)
        a.write(hvs)
        b.write(hvs)
        # Different physical cells -> different noise realisations.
        assert not np.array_equal(
            a.read(86400.0).hypervectors, b.read(86400.0).hypervectors
        )
