"""Simulated multi-level-cell RRAM substrate (paper Sections 2.2, 4, 5.2).

Replaces the fabricated chip with a calibrated behavioural model:
device-level conductance physics (programming noise, relaxation,
retention tails), differential-pair crossbar MVM with open-circuit
voltage sensing and ADC quantisation, dense n-bit hypervector storage,
and tiling of large matrices across arrays.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "device": [
            "DEFAULT_COMPUTE_READ_TIME_S",
            "DeviceConfig",
            "PAPER_TIME_POINTS_S",
            "RRAMDeviceModel",
        ],
        "adc": ["ADC", "ADCConfig"],
        "crossbar": ["CrossbarArray", "CrossbarConfig", "CrossbarStats", "sense_chunk"],
        "mapping": ["TiledMatrix", "TileShape", "plan_tiles"],
        "storage": ["HypervectorStore", "StorageReadout"],
        "chip": ["PAPER_CHIP_CELLS", "ChipInventory", "MLCRRAMChip"],
        "metrics": [
            "bit_error_rate",
            "level_error_rate",
            "normalized_rmse",
            "sign_error_rate",
        ],
        "area": ["AreaModel", "RRAM_CELL_AREA_F2", "SRAM_BITCELL_AREA_F2"],
        "writeverify": [
            "WriteVerifyConfig",
            "WriteVerifyResult",
            "residual_sigma_us",
            "write_verify",
        ],
    },
)
