"""Bench: regenerate Figure 8 (conductance relaxation histograms)."""

from repro.experiments import run_fig8


def test_fig8_conductance_relaxation(record):
    result = run_fig8(cells_per_level=4000)
    record(result)
    rows = {(row[0], row[1]): row for row in result.rows}
    for levels in (2, 4, 8):
        fresh = rows[(levels, "during_programming")]
        day = rows[(levels, "after_1day")]
        # Distributions widen with relaxation time...
        assert day[2] > fresh[2]
        # ...and level overlap (mis-decode) grows.
        assert day[4] >= fresh[4]
    # More levels -> tighter margins -> more overlap after relaxation.
    assert (
        rows[(8, "after_1day")][4]
        > rows[(4, "after_1day")][4]
        > rows[(2, "after_1day")][4]
    )
    # Fresh programming is clean at every level count (write-verify).
    for levels in (2, 4, 8):
        assert rows[(levels, "during_programming")][4] < 1.0
