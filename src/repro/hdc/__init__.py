"""Hyperdimensional computing core (paper Section 3).

Provides the seeded hypervector universe (:class:`HDSpace`), the
ID-Level spectrum encoder (Eq. 1), Hamming similarity search backends,
bit/cell packing used by MLC storage, and bit-error injection for the
robustness experiments.
"""

from .spaces import HDSpace, HDSpaceConfig
from .levels import (
    ChunkedLevels,
    chunked_levels,
    flip_levels,
    level_similarity_profile,
)
from .encoder import SpectrumEncoder, sign_with_tiebreak
from .similarity import (
    PackedReferenceSet,
    batch_dot_similarity,
    dot_similarity,
    hamming_similarity,
    packed_dot_scores,
    packed_hamming_distance,
    top_k,
)
from .packing import (
    bipolar_to_bits,
    bits_to_bipolar,
    cells_per_hypervector,
    hamming_rowsums,
    pack_bipolar,
    pack_cells,
    popcount,
    unpack_bipolar,
    unpack_cells,
)
from .noise import (
    flip_bits,
    flip_packed,
    measured_bit_error_rate,
    perturb_accumulator,
    shift_cell_levels,
)
from .alt_encoders import PermutationEncoder, RandomProjectionEncoder

__all__ = [
    "HDSpace",
    "HDSpaceConfig",
    "ChunkedLevels",
    "chunked_levels",
    "flip_levels",
    "level_similarity_profile",
    "SpectrumEncoder",
    "sign_with_tiebreak",
    "PackedReferenceSet",
    "batch_dot_similarity",
    "dot_similarity",
    "hamming_similarity",
    "packed_hamming_distance",
    "top_k",
    "bipolar_to_bits",
    "bits_to_bipolar",
    "cells_per_hypervector",
    "hamming_rowsums",
    "pack_bipolar",
    "pack_cells",
    "packed_dot_scores",
    "popcount",
    "unpack_bipolar",
    "unpack_cells",
    "flip_bits",
    "flip_packed",
    "measured_bit_error_rate",
    "perturb_accumulator",
    "shift_cell_levels",
    "PermutationEncoder",
    "RandomProjectionEncoder",
]
