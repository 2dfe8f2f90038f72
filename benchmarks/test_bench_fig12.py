"""Bench: regenerate Figure 12 + Section 5.3.3 (energy & speedup)."""

from repro.experiments import run_fig12
from repro.accelerator import PAPER_HEK293_SHAPE


def test_fig12_energy_and_speedup(record):
    result = run_fig12()
    record(result)
    energy = {row[0]: row[3] for row in result.rows}
    speedup = {
        row[0]: row[5] for row in result.rows if row[5] != "-"
    }
    # Energy-efficiency ordering of Figure 12:
    # CPU < ANN-SoLo GPU < HyperOMS GPU << this work.
    assert (
        energy["ann-solo-cpu-i7-11700K"]
        < energy["ann-solo-gpu-rtx4090"]
        < energy["hyperoms-gpu-rtx4090"]
        < energy["this-work-mlc-rram"]
    )
    # Two-to-three orders of magnitude vs. the CPU baseline.
    assert 500 <= energy["this-work-mlc-rram"] <= 30_000
    # Speedups land near the paper's 76.7x / 24.8x / 1.7x.
    assert 40 <= speedup["ann-solo-cpu-i7-11700K"] <= 150
    assert 12 <= speedup["ann-solo-gpu-rtx4090"] <= 50
    assert 1.2 <= speedup["hyperoms-gpu-rtx4090"] <= 3.0


def test_fig12_scales_to_hek293(record):
    """The paper expects the advantage to persist at 3x the library."""
    result = run_fig12(shape=PAPER_HEK293_SHAPE)
    result.experiment_id = "fig12_hek293"
    record(result)
    energy = {row[0]: row[3] for row in result.rows}
    assert energy["this-work-mlc-rram"] > 500
