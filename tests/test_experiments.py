"""Smoke tests for the experiment modules at reduced scale.

The benchmarks run the experiments at their reporting scale and assert
the paper shapes; these tests only verify the experiment machinery
(structure, determinism where promised, parameter plumbing) quickly.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_fig7,
    run_fig8,
    run_fig9_search,
    run_fig11,
    run_fig12,
    run_table1,
)
from repro.experiments.fig10_venn import venn_regions
from repro.experiments.report import ExperimentResult, format_cell, format_table
from repro.experiments.workloads import (
    PAPER_SIZES,
    hek293_like,
    iprg2012_like,
)
from repro.ms.synthetic import WorkloadConfig, build_workload


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "value, text",
        [
            (0.0, "0"),
            (1234.5, "1.23e+03"),  # large: three significant digits
            (-0.001234, "-0.00123"),  # small: three significant digits
            (12.3456, "12.346"),  # mid-range: three decimals
            (2.0, "2"),  # trailing zeros and the bare point dropped
            (list(range(9)), "<list with 9 entries>"),
            ((1, 2), "(1, 2)"),  # short containers print whole
        ],
    )
    def test_format_cell(self, value, text):
        assert format_cell(value) == text

    def test_result_column_access(self):
        result = ExperimentResult("x", "t", ["h1", "h2"], [[1, 2], [3, 4]])
        assert result.column("h2") == [2, 4]
        with pytest.raises(ValueError):
            result.column("missing")

    def test_render_summarises_long_notes(self):
        result = ExperimentResult(
            "x", "t", ["h"], [[1]], notes={"big": list(range(100))}
        )
        assert "100 entries" in result.render()


class TestWorkloadPresets:
    def test_presets_have_paper_counterparts(self):
        for workload in (iprg2012_like(0.05), hek293_like(0.05)):
            assert workload.config.name in PAPER_SIZES

    def test_hek_is_larger_and_more_modified(self):
        iprg = iprg2012_like(0.1)
        hek = hek293_like(0.1)
        assert len(hek.references) > len(iprg.references)
        assert (
            hek.config.modification_probability
            > iprg.config.modification_probability
        )


class TestExperimentsSmallScale:
    def test_table1_structure(self):
        result = run_table1(scale=0.05)
        assert result.experiment_id == "table1"
        assert len(result.rows) == 2
        assert result.column("paper_references") == [1_000_000, 3_000_000]

    def test_fig7_deterministic(self):
        a = run_fig7(num_hypervectors=4, dim=512, seed=3)
        b = run_fig7(num_hypervectors=4, dim=512, seed=3)
        assert a.rows == b.rows

    def test_fig7_time_points(self):
        result = run_fig7(num_hypervectors=4, dim=512)
        assert result.column("time") == [
            "after_1s",
            "after_30min",
            "after_60min",
            "after_1day",
        ]

    def test_fig8_histograms_present(self):
        result = run_fig8(cells_per_level=200, level_counts=(2, 4))
        histograms = result.notes["histograms"]
        assert "4level_after_1day" in histograms
        assert sum(histograms["4level_after_1day"]) == 4 * 200

    def test_fig9_search_custom_rows(self):
        result = run_fig9_search(activated_rows=(8, 16), num_mvms=3)
        assert result.column("activated_rows") == [8, 16]

    def test_fig11_small(self):
        workload = build_workload(
            WorkloadConfig(name="f11", num_references=80, num_queries=20, seed=3)
        )
        result = run_fig11(
            workload=workload, dim=512, bers=(0.01,), id_precisions=(1, 3)
        )
        assert result.headers == ["BER", "ID_precision_1bit", "ID_precision_3bit"]
        assert all(row[1] >= 0 for row in result.rows)

    def test_fig12_notes_carry_shape(self):
        result = run_fig12()
        assert result.notes["num_queries"] == 16_000
        assert len(result.rows) == 4


class TestVennRegions:
    def test_disjoint_sets(self):
        regions = venn_regions({"a"}, {"b"}, {"c"})
        assert regions["only_annsolo"] == 1
        assert regions["all_three"] == 0

    def test_identical_sets(self):
        s = {"x", "y"}
        regions = venn_regions(set(s), set(s), set(s))
        assert regions["all_three"] == 2
        assert sum(v for k, v in regions.items() if k != "all_three") == 0

    def test_regions_partition_union(self):
        rng = np.random.default_rng(1)
        universe = [f"p{i}" for i in range(50)]
        sets = [
            {p for p in universe if rng.random() < 0.5} for _ in range(3)
        ]
        regions = venn_regions(*sets)
        assert sum(regions.values()) == len(sets[0] | sets[1] | sets[2])
