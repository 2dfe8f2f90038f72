"""Tests for the ID-Level encoder and Hamming similarity backends."""

import numpy as np
import pytest

from repro.hdc.encoder import SpectrumEncoder, sign_with_tiebreak
from repro.hdc.similarity import (
    PackedReferenceSet,
    batch_dot_similarity,
    dot_similarity,
    hamming_similarity,
    packed_hamming_distance,
    top_k,
)
from repro.hdc.packing import pack_bipolar
from repro.hdc.spaces import HDSpace, HDSpaceConfig
from repro.ms.preprocessing import preprocess
from repro.ms.vectorize import vectorize


@pytest.fixture(scope="module")
def encoder_and_vectors(request):
    from repro.hdc.spaces import HDSpace, HDSpaceConfig
    from repro.ms.synthetic import WorkloadConfig, build_workload
    from repro.ms.vectorize import BinningConfig

    binning = BinningConfig()
    space = HDSpace(
        HDSpaceConfig(
            dim=1024,
            num_bins=binning.num_bins,
            num_levels=8,
            id_precision_bits=3,
            seed=17,
        )
    )
    encoder = SpectrumEncoder(space, binning)
    workload = build_workload(
        WorkloadConfig(name="enc", num_references=20, num_queries=0, seed=9)
    )
    vectors = [
        vectorize(preprocess(s), binning) for s in workload.references
    ]
    return encoder, vectors


class TestSignWithTiebreak:
    def test_plain_signs(self):
        tiebreak = np.array([1, -1, 1, -1], dtype=np.int8)
        out = sign_with_tiebreak(np.array([5.0, -3.0, 0.1, -0.1]), tiebreak)
        assert out.tolist() == [1, -1, 1, -1]

    def test_zeros_take_tiebreak(self):
        tiebreak = np.array([1, -1, 1], dtype=np.int8)
        out = sign_with_tiebreak(np.array([0.0, 0.0, 0.0]), tiebreak)
        assert out.tolist() == [1, -1, 1]


class TestEncoder:
    def test_output_is_bipolar(self, encoder_and_vectors):
        encoder, vectors = encoder_and_vectors
        hv = encoder.encode_vector(vectors[0])
        assert hv.dtype == np.int8
        assert set(np.unique(hv)) <= {-1, 1}

    def test_deterministic(self, encoder_and_vectors):
        encoder, vectors = encoder_and_vectors
        assert np.array_equal(
            encoder.encode_vector(vectors[1]), encoder.encode_vector(vectors[1])
        )

    def test_matches_manual_equation_1(self, encoder_and_vectors):
        """Independently recompute h = sign(sum ID_i * LV_i)."""
        encoder, vectors = encoder_and_vectors
        vector = vectors[2]
        from repro.ms.vectorize import quantize_intensities

        levels, _ = quantize_intensities(vector.values, encoder.space.num_levels)
        accumulator = np.zeros(encoder.space.dim, dtype=np.int64)
        for bin_index, level in zip(vector.indices, levels):
            accumulator += encoder.space.id_vector(int(bin_index)).astype(
                np.int64
            ) * encoder.space.level_vector(int(level)).astype(np.int64)
        expected = sign_with_tiebreak(accumulator, encoder.space.tiebreak)
        assert np.array_equal(encoder.encode_vector(vector), expected)

    def test_empty_vector_encodes_to_tiebreak(self, encoder_and_vectors):
        encoder, _ = encoder_and_vectors
        from repro.ms.vectorize import SparseVector

        empty = SparseVector(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            encoder.binning.num_bins,
        )
        assert np.array_equal(
            encoder.encode_vector(empty), encoder.space.tiebreak
        )

    def test_similar_spectra_have_similar_hypervectors(
        self, encoder_and_vectors
    ):
        """Encoding preserves neighbourhood structure (HD's core claim)."""
        encoder, vectors = encoder_and_vectors
        hvs = encoder.encode_batch(vectors)
        dim = encoder.space.dim
        self_sim = batch_dot_similarity(hvs[0], hvs[:1])[0]
        cross = batch_dot_similarity(hvs[0], hvs[1:])
        assert self_sim == dim
        # unrelated spectra stay near orthogonal
        assert np.abs(cross).max() < 0.35 * dim

    def test_batch_equals_single(self, encoder_and_vectors):
        encoder, vectors = encoder_and_vectors
        batch = encoder.encode_batch(vectors[:4])
        for row, vector in enumerate(vectors[:4]):
            assert np.array_equal(batch[row], encoder.encode_vector(vector))

    def test_num_bins_mismatch_raises(self, encoder_and_vectors, binning):
        encoder, _ = encoder_and_vectors
        from repro.ms.vectorize import BinningConfig

        small_binning = BinningConfig(min_mz=100, max_mz=200, bin_width=1.0)
        with pytest.raises(ValueError, match="bins"):
            SpectrumEncoder(encoder.space, small_binning)


class TestSimilarity:
    def test_hamming_identity(self, rng):
        a = (rng.integers(0, 2, 256) * 2 - 1).astype(np.int8)
        assert hamming_similarity(a, a) == 256
        assert dot_similarity(a, a) == 256

    def test_hamming_complement(self, rng):
        a = (rng.integers(0, 2, 256) * 2 - 1).astype(np.int8)
        assert hamming_similarity(a, -a) == 0

    def test_dot_hamming_relation(self, rng):
        a = (rng.integers(0, 2, 512) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, 512) * 2 - 1).astype(np.int8)
        assert dot_similarity(a, b) == 2 * hamming_similarity(a, b) - 512

    def test_batch_matches_loop(self, rng):
        queries = (rng.integers(0, 2, (3, 128)) * 2 - 1).astype(np.int8)
        refs = (rng.integers(0, 2, (5, 128)) * 2 - 1).astype(np.int8)
        scores = batch_dot_similarity(queries, refs)
        assert scores.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert scores[i, j] == dot_similarity(queries[i], refs[j])

    def test_packed_set_matches_dense(self, rng):
        refs = (rng.integers(0, 2, (20, 300)) * 2 - 1).astype(np.int8)
        query = (rng.integers(0, 2, 300) * 2 - 1).astype(np.int8)
        packed = PackedReferenceSet(refs)
        assert len(packed) == 20
        assert np.array_equal(
            packed.search(query), batch_dot_similarity(query, refs)
        )

    def test_packed_hamming_distance(self, rng):
        a = (rng.integers(0, 2, 128) * 2 - 1).astype(np.int8)
        b = a.copy()
        b[:10] = -b[:10]
        distance = packed_hamming_distance(
            pack_bipolar(a), pack_bipolar(b)
        )
        assert int(distance) == 10

    @pytest.mark.parametrize("dim", [64, 100, 128, 8191])
    def test_packed_hamming_distance_any_row_width(self, rng, dim):
        """Whole-word counting (8-byte multiples) and the byte path agree."""
        rows = (rng.integers(0, 2, (7, dim)) * 2 - 1).astype(np.int8)
        query = (rng.integers(0, 2, dim) * 2 - 1).astype(np.int8)
        expected = (rows != query).sum(axis=1)
        packed = pack_bipolar(rows)
        assert packed_hamming_distance(packed, pack_bipolar(query)).tolist() == (
            expected.tolist()
        )
        # Column-major rows cannot be viewed as words along the last axis.
        assert packed_hamming_distance(
            np.asfortranarray(packed), pack_bipolar(query)
        ).tolist() == expected.tolist()

    def test_top_k(self):
        scores = np.array([5, 9, 1, 9, 3])
        assert top_k(scores, 2).tolist() == [1, 3]  # stable tie-break
        mask = np.array([True, False, True, False, True])
        assert top_k(scores, 2, mask).tolist() == [0, 4]
        assert top_k(scores, 3, np.zeros(5, bool)).tolist() == []
        with pytest.raises(ValueError):
            top_k(scores, 0)
