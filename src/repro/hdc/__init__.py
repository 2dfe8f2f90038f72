"""Hyperdimensional computing core (paper Section 3).

Provides the seeded hypervector universe (:class:`HDSpace`), the
ID-Level spectrum encoder (Eq. 1), Hamming similarity search backends,
bit/cell packing used by MLC storage, and bit-error injection for the
robustness experiments.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "spaces": ["HDSpace", "HDSpaceConfig"],
        "levels": [
            "ChunkedLevels",
            "chunked_levels",
            "flip_levels",
            "level_similarity_profile",
        ],
        "encoder": ["SpectrumEncoder", "sign_with_tiebreak"],
        "similarity": [
            "PackedReferenceSet",
            "batch_dot_similarity",
            "dot_similarity",
            "hamming_similarity",
            "packed_hamming_distance",
            "top_k",
            "packed_dot_scores",
        ],
        "packing": [
            "bipolar_to_bits",
            "bits_to_bipolar",
            "cells_per_hypervector",
            "hamming_rowsums",
            "pack_bipolar",
            "pack_cells",
            "popcount",
            "unpack_bipolar",
            "unpack_cells",
        ],
        "noise": [
            "flip_bits",
            "flip_packed",
            "measured_bit_error_rate",
            "perturb_accumulator",
            "shift_cell_levels",
        ],
        "alt_encoders": ["PermutationEncoder", "RandomProjectionEncoder"],
    },
)
