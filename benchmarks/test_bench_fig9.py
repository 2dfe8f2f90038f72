"""Bench: regenerate Figure 9 (computation errors vs. activated rows)."""

import numpy as np

from repro.experiments import run_fig9_encoding, run_fig9_search


def _mean(values):
    return float(np.mean(values))


def test_fig9a_encoding_errors(record):
    result = run_fig9_encoding(dim=1024, num_spectra=12)
    record(result)
    for column in ("1_bit_per_cell", "2_bits_per_cell", "3_bits_per_cell"):
        series = result.column(column)
        # Error grows with activated rows (compare low-row vs high-row
        # halves; individual points are noisy on a simulator seed).
        assert _mean(series[-3:]) > _mean(series[:2])
    # More bits per cell -> more encoding error, on average.
    assert _mean(result.column("3_bits_per_cell")) > _mean(
        result.column("1_bit_per_cell")
    )
    # At the paper's operating point (64 rows) the 3-bit error stays in
    # the regime HD tolerates (Figure 11: up to ~10-20%).
    row_64 = next(row for row in result.rows if row[0] == 64)
    assert row_64[3] < 20.0


def test_fig9b_search_errors(record):
    result = run_fig9_search(num_mvms=30)
    record(result)
    for column in ("1_bit_per_cell", "2_bits_per_cell", "3_bits_per_cell"):
        series = result.column(column)
        assert series[-1] > series[0]
        # The paper's NRMSE stays within ~0.02-0.12 across the sweep.
        assert all(0.005 < value < 0.2 for value in series)
    assert _mean(result.column("3_bits_per_cell")) > _mean(
        result.column("1_bit_per_cell")
    )
