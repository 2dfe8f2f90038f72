"""Open modification search engine (the paper's application layer).

Candidate selection by precursor window, HD Hamming search with
pluggable backends, target-decoy FDR filtering, and the end-to-end
pipeline of paper Figure 2.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "candidates": [
            "CandidateIndex",
            "ENCODE_BLOCK_SIZE",
            "HDSearchConfig",
            "SCORE_BLOCK_BYTES",
            "WindowConfig",
        ],
        "psm": ["PSM", "SearchResult", "evaluate_against_truth"],
        "fdr": ["assign_qvalues", "decoy_statistics", "filter_at_fdr", "grouped_fdr"],
        "search": [
            "DenseBackend",
            "HDOmsSearcher",
            "PackedBackend",
            "SimilarityBackend",
        ],
        "pipeline": [
            "OmsPipeline",
            "PipelineConfig",
            "PipelineResult",
        ],
        "batch": ["BatchedHDOmsSearcher"],
        "modification_analysis": [
            "DeltaMassPeak",
            "ModificationReport",
            "analyze_modifications",
            "annotate_delta_mass",
            "delta_mass_histogram",
        ],
    },
)
