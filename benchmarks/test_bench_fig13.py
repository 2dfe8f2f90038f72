"""Bench: regenerate Figure 13 (identifications vs. HD dimension)."""

from repro.experiments import run_fig13


def test_fig13_hd_dimension(record):
    result = run_fig13()
    record(result)
    dims = result.column("hd_dim")
    ideal = result.column("ideal")
    rram = result.column("in_rram_3bpc")
    assert dims == sorted(dims, reverse=True)
    # Identifications degrade as the dimension shrinks (compare the
    # largest dimension against the smallest).
    assert ideal[-1] < ideal[0]
    assert rram[-1] < rram[0]
    # The in-RRAM pipeline tracks the ideal one at high dimension
    # (within 10%) and never meaningfully exceeds it.
    assert rram[0] >= 0.9 * ideal[0]
    for ideal_ids, rram_ids in zip(ideal, rram):
        assert rram_ids <= ideal_ids * 1.1
    # At the smallest dimension the analog noise hurts the RRAM path
    # more than the ideal one — the widening gap the paper plots.
    assert (ideal[-1] - rram[-1]) >= 0
