"""Experiment modules regenerating every table and figure of the paper.

Each ``run_*`` function returns an
:class:`~repro.experiments.report.ExperimentResult` whose rows/series
mirror what the paper plots; the corresponding benchmark under
``benchmarks/`` executes it, prints the rendering, and asserts the
reproduced *shape* (orderings, monotonicity, crossovers).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "report": ["ExperimentResult", "format_table"],
        "workloads": [
            "HEK293_LIKE",
            "IPRG2012_LIKE",
            "PAPER_SIZES",
            "both_workloads",
            "hek293_like",
            "iprg2012_like",
        ],
        "table1": ["run_table1"],
        "fig7_storage": ["run_fig7"],
        "fig8_relaxation": ["FIG8_TIME_POINTS_S", "run_fig8"],
        "fig9_compute": ["run_fig9_encoding", "run_fig9_search"],
        "fig10_venn": ["run_fig10", "venn_regions"],
        "fig11_robustness": ["PAPER_BER_POINTS", "run_fig11"],
        "fig12_energy": ["PAPER_ENERGY_IMPROVEMENTS", "PAPER_SPEEDUPS", "run_fig12"],
        "fig13_dimension": ["run_fig13"],
        "ablations": [
            "run_ablation_encoding_scheme",
            "run_ablation_fdr",
            "run_ablation_id_precision",
            "run_ablation_levels",
            "run_ablation_weight_mapping",
        ],
    },
)
