"""Comparison baselines: ANN-SoLo-like, HyperOMS-like, brute force.

These reimplement the two state-of-the-art tools the paper benchmarks
against (Section 5.1.2) plus an exact-cosine oracle, all sharing the
candidate-selection and FDR machinery of :mod:`repro.oms` so that
Figure 10's Venn comparison is apples-to-apples.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "annsolo": ["AnnSoloSearcher", "shifted_dot_product"],
        "brute_force": ["BruteForceSearcher"],
        "common": ["VectorSearcherBase"],
        "hyperoms": ["HyperOmsSearcher"],
    },
)
