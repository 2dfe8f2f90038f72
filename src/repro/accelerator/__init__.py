"""The proposed OMS accelerator (paper Section 4).

In-memory encoding, in-memory Hamming search, MLC query storage, and
the performance/energy models behind Figure 12 and Section 5.3.3.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "config": ["AcceleratorConfig"],
        "im_encoder": ["EncoderStats", "InMemoryEncoder"],
        "im_search": ["InMemorySearchBackend", "SearchStats"],
        "accelerator": ["OmsAccelerator", "StoredQueryEncoder"],
        "perf": [
            "ALL_BASELINES",
            "ANN_SOLO_CPU",
            "ANN_SOLO_GPU",
            "HYPEROMS_GPU",
            "AcceleratorPerfModel",
            "DigitalPlatformModel",
            "EnergyParams",
            "PAPER_HEK293_SHAPE",
            "PAPER_IPRG2012_SHAPE",
            "PlatformCost",
            "StageCost",
            "WorkloadShape",
            "energy_improvements",
            "hd_operation_count",
            "platform_costs",
            "sdp_operation_count",
            "speedups_vs_this_work",
        ],
    },
)
