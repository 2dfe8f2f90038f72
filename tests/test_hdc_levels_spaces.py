"""Tests for level hypervectors and the HDSpace codebooks."""

import numpy as np
import pytest

from repro.hdc.levels import (
    ChunkedLevels,
    chunked_levels,
    flip_levels,
    level_similarity_profile,
)
from repro.hdc.spaces import HDSpace, HDSpaceConfig


class TestFlipLevels:
    def test_shape_and_alphabet(self, rng):
        levels = flip_levels(512, 8, rng)
        assert levels.shape == (8, 512)
        assert set(np.unique(levels)) <= {-1, 1}

    def test_similarity_decreases_monotonically(self, rng):
        levels = flip_levels(1024, 16, rng)
        profile = level_similarity_profile(levels)
        assert profile[0] == pytest.approx(1.0)
        assert np.all(np.diff(profile) < 0)

    def test_extreme_levels_near_orthogonal_halfway(self, rng):
        # l_0 vs l_{Q-1} differ in (Q-1)*D/(2Q) ~ D/2 positions,
        # so similarity ~ 0.
        levels = flip_levels(2048, 16, rng)
        profile = level_similarity_profile(levels)
        assert abs(profile[-1]) < 0.15

    def test_adjacent_levels_flip_exact_block(self, rng):
        dim, num_levels = 1024, 8
        levels = flip_levels(dim, num_levels, rng)
        block = dim // (2 * num_levels)
        for j in range(1, num_levels):
            differing = int(np.sum(levels[j] != levels[j - 1]))
            assert differing == block

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            flip_levels(512, 1, rng)
        with pytest.raises(ValueError):
            flip_levels(8, 16, rng)


class TestChunkedLevels:
    def test_chunk_structure(self, rng):
        chunked = chunked_levels(512, 8, 32, rng)
        assert isinstance(chunked, ChunkedLevels)
        expanded = chunked.expand()
        assert expanded.shape == (8, 512)
        # Within every chunk, all values are identical at every level.
        for level in range(8):
            for chunk_slice in chunked.chunk_slices():
                chunk = expanded[level, chunk_slice]
                assert np.all(chunk == chunk[0])

    def test_chunk_slices_cover_dim_exactly(self, rng):
        chunked = chunked_levels(517, 4, 32, rng)  # non-divisible dim
        slices = chunked.chunk_slices()
        covered = sum(s.stop - s.start for s in slices)
        assert covered == 517
        assert slices[0].start == 0
        assert slices[-1].stop == 517

    def test_similarity_monotone(self, rng):
        chunked = chunked_levels(2048, 16, 128, rng)
        profile = level_similarity_profile(chunked.expand())
        assert np.all(np.diff(profile) < 1e-9)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            chunked_levels(512, 8, 4, rng)  # fewer chunks than levels
        with pytest.raises(ValueError):
            chunked_levels(16, 8, 32, rng)  # dim < chunks


class TestHDSpace:
    def test_id_alphabets_per_precision(self, binning):
        for bits, magnitude in ((1, 1), (2, 2), (3, 4)):
            space = HDSpace(
                HDSpaceConfig(
                    dim=256,
                    num_bins=binning.num_bins,
                    id_precision_bits=bits,
                    seed=1,
                )
            )
            values = set(np.unique(space.id_bank).tolist())
            expected = set(range(-magnitude, 0)) | set(range(1, magnitude + 1))
            assert values == expected  # every symbol drawn, zero never

    def test_id_vectors_read_only(self, small_space):
        vector = small_space.id_vector(3)
        with pytest.raises(ValueError):
            vector[0] = 5

    def test_different_bins_near_orthogonal(self, binning):
        space = HDSpace(
            HDSpaceConfig(dim=4096, num_bins=binning.num_bins, seed=2)
        )
        a = space.id_vector(0).astype(np.int32)
        b = space.id_vector(1).astype(np.int32)
        # normalised correlation of independent random vectors ~ 0
        corr = abs(float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert corr < 0.1

    def test_id_matrix_stacks_rows(self, small_space):
        matrix = small_space.id_matrix([1, 2, 3])
        assert matrix.shape == (3, small_space.dim)
        assert np.array_equal(matrix[1], small_space.id_vector(2))

    def test_out_of_range_raises(self, small_space):
        with pytest.raises(IndexError):
            small_space.id_vector(small_space.config.num_bins)
        with pytest.raises(IndexError):
            small_space.id_vector(-1)  # would wrap in the bank otherwise
        with pytest.raises(IndexError):
            small_space.level_vector(small_space.num_levels)

    def test_seed_changes_codebooks(self, binning):
        a = HDSpace(HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=1))
        b = HDSpace(HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=2))
        assert not np.array_equal(a.id_vector(0), b.id_vector(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HDSpaceConfig(dim=2)
        with pytest.raises(ValueError):
            HDSpaceConfig(id_precision_bits=4)
        with pytest.raises(ValueError):
            HDSpaceConfig(num_levels=1)

    def test_chunked_space_has_chunk_values(self, small_space):
        assert small_space.chunked_levels is not None
        assert np.array_equal(
            small_space.chunked_levels.expand(), small_space.level_vectors
        )

    def test_unchunked_space(self, binning):
        space = HDSpace(
            HDSpaceConfig(
                dim=256, num_bins=binning.num_bins, chunked=False, seed=3
            )
        )
        assert space.chunked_levels is None
        assert space.level_vectors.shape == (32, 256)
