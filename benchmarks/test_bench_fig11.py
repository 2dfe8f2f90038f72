"""Bench: regenerate Figure 11 (HD robustness vs. bit error rate)."""

import numpy as np

from repro.experiments import run_fig11


def test_fig11_hd_robustness(record):
    result = run_fig11()
    record(result)
    for precision in (1, 2, 3):
        series = result.column(f"ID_precision_{precision}bit")
        clean, at_10pct, at_20pct = series[0], series[-2], series[-1]
        # Flat up to ~10% BER: within 20% of the clean count.
        assert at_10pct >= 0.8 * clean
        # Degradation shows by 20% BER.
        assert at_20pct < clean
    # The multi-bit ID scheme identifies more than binary IDs overall
    # (paper Section 5.3.2: "enhanced performance ... multi-bit
    # hypervector scheme").
    total_1bit = float(np.sum(result.column("ID_precision_1bit")))
    total_3bit = float(np.sum(result.column("ID_precision_3bit")))
    assert total_3bit >= total_1bit
