"""Bench: regenerate Figure 7 (storage bit error rate vs. time)."""

from repro.experiments import run_fig7


def test_fig7_storage_bit_error_rate(record):
    result = run_fig7(num_hypervectors=64, dim=4096)
    record(result)
    ber_1 = result.column("1_bit_per_cell")
    ber_2 = result.column("2_bits_per_cell")
    ber_3 = result.column("3_bits_per_cell")
    # More bits per cell -> higher BER, at every time point.
    for one, two, three in zip(ber_1, ber_2, ber_3):
        assert one <= two <= three
    # BER grows with relaxation time (1s -> 1day) for MLC cells.
    assert ber_2[-1] > ber_2[0]
    assert ber_3[-1] > ber_3[0]
    # Paper's headline figures: SLC storage stays essentially error-free
    # while 3 bits/cell lands near ~10-14% after a day — inside the
    # error budget Figure 11 shows HD tolerating.
    assert ber_1[-1] < 1.0
    assert 5.0 < ber_3[-1] < 25.0
