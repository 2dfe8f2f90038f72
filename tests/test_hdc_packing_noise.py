"""Tests for bit/cell packing and noise injection."""

import numpy as np
import pytest

from repro.hdc import noise
from repro.hdc.noise import (
    flip_bits,
    flip_packed,
    measured_bit_error_rate,
    perturb_accumulator,
    shift_cell_levels,
)
from repro.hdc.packing import (
    bipolar_to_bits,
    bits_to_bipolar,
    cells_per_hypervector,
    hamming_dtype,
    hamming_rowsums,
    pack_bipolar,
    pack_cells,
    popcount,
    unpack_bipolar,
    unpack_cells,
)
from repro.hdc.similarity import packed_dot_scores, packed_hamming_distance


class TestBitPacking:
    def test_popcount_known_values(self):
        assert popcount(np.array([0], dtype=np.uint8))[()] == 0
        assert popcount(np.array([255], dtype=np.uint8))[()] == 8
        assert popcount(np.array([0b1010_0110], dtype=np.uint8))[()] == 4

    def test_popcount_paths_agree(self, rng):
        """The native np.bitwise_count path and the LUT fallback are
        bit-identical (dtype included) on every byte value and shape."""
        from repro.hdc.packing import _popcount_lut

        every_byte = np.arange(256, dtype=np.uint8)
        assert np.array_equal(popcount(every_byte), _popcount_lut(every_byte))
        words = rng.integers(0, 256, size=(7, 33), dtype=np.uint8)
        fast = popcount(words)
        lut = _popcount_lut(words)
        assert fast.dtype == np.int64
        assert lut.dtype == np.int64
        assert np.array_equal(fast, lut)
        if hasattr(np, "bitwise_count"):
            # On NumPy >= 2.0 the active path really is the native ufunc.
            assert np.array_equal(
                np.bitwise_count(words).astype(np.int64), lut
            )

    def test_pack_unpack_roundtrip(self, rng):
        for dim in (8, 64, 100, 513):
            vectors = (rng.integers(0, 2, (4, dim)) * 2 - 1).astype(np.int8)
            assert np.array_equal(
                unpack_bipolar(pack_bipolar(vectors), dim), vectors
            )

    def test_bipolar_bits_mapping(self):
        bipolar = np.array([-1, 1, 1, -1], dtype=np.int8)
        bits = bipolar_to_bits(bipolar)
        assert bits.tolist() == [0, 1, 1, 0]
        assert np.array_equal(bits_to_bipolar(bits), bipolar)


class TestCellPacking:
    @pytest.mark.parametrize("bits_per_cell", [1, 2, 3])
    def test_roundtrip_all_precisions(self, rng, bits_per_cell):
        for dim in (24, 100, 512, 1025):
            vectors = (rng.integers(0, 2, (3, dim)) * 2 - 1).astype(np.int8)
            cells = pack_cells(vectors, bits_per_cell)
            assert cells.dtype == np.uint8
            assert cells.max() < 2**bits_per_cell
            restored = unpack_cells(cells, bits_per_cell, dim)
            assert np.array_equal(restored, vectors)

    def test_known_packing(self):
        # bits 1,0,1 -> MSB-first value 5 at 3 bits/cell.
        vector = np.array([1, -1, 1], dtype=np.int8)
        assert pack_cells(vector, 3).tolist() == [5]
        # Two cells at 2 bits: (1,1)->3, (0,pad0)->0b10? No: (0,pad)->00
        vector = np.array([1, 1, -1], dtype=np.int8)
        assert pack_cells(vector, 2).tolist() == [3, 0]

    def test_single_vector_shape(self, rng):
        vector = (rng.integers(0, 2, 32) * 2 - 1).astype(np.int8)
        cells = pack_cells(vector, 2)
        assert cells.ndim == 1
        assert len(cells) == 16

    def test_cell_count_helper(self):
        assert cells_per_hypervector(8192, 1) == 8192
        assert cells_per_hypervector(8192, 2) == 4096
        assert cells_per_hypervector(8192, 3) == 2731  # ceil

    def test_storage_density_is_the_paper_claim(self):
        """3 bits/cell stores 3x the hypervectors of SLC in equal cells."""
        cells_budget = 3_000_000
        dim = 8192
        slc = cells_budget // cells_per_hypervector(dim, 1)
        mlc3 = cells_budget // cells_per_hypervector(dim, 3)
        assert mlc3 >= 2.99 * slc

    def test_invalid_bits_raise(self, rng):
        vector = (rng.integers(0, 2, 8) * 2 - 1).astype(np.int8)
        with pytest.raises(ValueError):
            pack_cells(vector, 4)
        with pytest.raises(ValueError):
            unpack_cells(np.zeros(4, dtype=np.uint8), 0, 8)


class TestNoise:
    def test_flip_bits_rate(self, rng):
        vectors = np.ones((100, 1000), dtype=np.int8)
        noisy = flip_bits(vectors, 0.1, rng)
        rate = measured_bit_error_rate(vectors, noisy)
        assert rate == pytest.approx(0.1, abs=0.01)

    def test_flip_zero_rate_identity(self, rng):
        vectors = np.ones((4, 64), dtype=np.int8)
        noisy = flip_bits(vectors, 0.0, rng)
        assert np.array_equal(noisy, vectors)
        assert noisy is not vectors  # a copy, never aliased

    def test_flip_preserves_alphabet(self, rng):
        vectors = (rng.integers(0, 2, (8, 256)) * 2 - 1).astype(np.int8)
        noisy = flip_bits(vectors, 0.3, rng)
        assert set(np.unique(noisy)) <= {-1, 1}

    def test_invalid_rate_raises(self, rng):
        with pytest.raises(ValueError):
            flip_bits(np.ones(4, dtype=np.int8), 1.5, rng)

    @pytest.mark.parametrize("dim", [8, 13, 1000])
    def test_flip_packed_flips_what_flip_bits_flips(self, dim):
        # One noise stream, two layouts: the packed rows must come out as
        # the packed form of the unpacked flips, pad bits (dim 13) zero.
        vectors = bits_to_bipolar(np.random.default_rng(1).integers(0, 2, (6, dim)))
        expected = pack_bipolar(flip_bits(vectors, 0.2, np.random.default_rng(9)))
        got = flip_packed(pack_bipolar(vectors), dim, 0.2, np.random.default_rng(9))
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    def test_flip_packed_blocks_draw_one_stream(self, monkeypatch):
        # Three rows per block over seven rows: the block seams must not
        # shift the stream against the one-shot unpacked draw.
        monkeypatch.setattr(noise, "_FLIP_BLOCK_DRAWS", 3 * 64)
        vectors = bits_to_bipolar(np.random.default_rng(2).integers(0, 2, (7, 64)))
        expected = pack_bipolar(flip_bits(vectors, 0.3, np.random.default_rng(4)))
        got = flip_packed(pack_bipolar(vectors), 64, 0.3, np.random.default_rng(4))
        assert np.array_equal(got, expected)

    def test_flip_packed_zero_rate_draws_nothing(self):
        packed = pack_bipolar(np.ones((3, 40), dtype=np.int8))
        rng = np.random.default_rng(5)
        assert flip_packed(packed, 40, 0.0, rng) is packed
        assert rng.random() == np.random.default_rng(5).random()

    def test_flip_packed_invalid_rate_raises(self, rng):
        with pytest.raises(ValueError):
            flip_packed(np.zeros((1, 1), dtype=np.uint8), 8, -0.1, rng)

    def test_measured_ber_mismatched_shapes(self):
        with pytest.raises(ValueError):
            measured_bit_error_rate(np.ones(4), np.ones(5))

    def test_shift_cell_levels(self, rng):
        cells = rng.integers(0, 8, size=10_000).astype(np.uint8)
        noisy = shift_cell_levels(cells, 0.2, 8, rng)
        changed = np.mean(cells != noisy)
        # Interior cells always change when hit; boundary cells may clip
        # back, so the observed rate is a bit under the nominal 20%.
        assert 0.1 < changed <= 0.21
        assert noisy.max() < 8
        assert np.abs(noisy.astype(int) - cells.astype(int)).max() <= 1

    def test_perturb_accumulator_scaling(self, rng):
        accumulator = rng.normal(0, 10, 10_000)
        noisy = perturb_accumulator(accumulator, 0.5, rng)
        error = noisy - accumulator
        rms = np.sqrt(np.mean(accumulator**2))
        assert np.std(error) == pytest.approx(0.5 * rms, rel=0.1)

    def test_perturb_zero_noise(self, rng):
        accumulator = np.arange(10, dtype=float)
        assert np.array_equal(
            perturb_accumulator(accumulator, 0.0, rng), accumulator
        )


class TestHammingRowsums:
    """The narrow (uint16) sum equals the int64 sum wherever it is used."""

    @staticmethod
    def _int64_sum(a, b):
        return np.unpackbits(np.bitwise_xor(a, b), axis=-1).sum(axis=-1, dtype=np.int64)

    @pytest.mark.parametrize("dim", [8192, 8000, 1000, 65528, 65536, 65600])
    def test_parity_with_the_int64_sum(self, rng, dim):
        words = -(-dim // 8)
        rows = np.packbits(rng.integers(0, 2, (5, dim), dtype=np.uint8), axis=-1)
        query = np.packbits(rng.integers(0, 2, dim, dtype=np.uint8))
        complement = np.packbits(np.unpackbits(query, count=dim) ^ 1)
        slab = np.vstack([rows, query, complement])
        got = hamming_rowsums(slab, query)
        assert got.dtype == hamming_dtype(words)
        assert got.dtype == (np.uint16 if 8 * words <= 65535 else np.int64)
        assert got.tolist() == self._int64_sum(slab, query).tolist()
        # All-equal rows are at 0, the complement at every real bit.
        assert got[-2] == 0 and got[-1] == dim

    def test_scores_widen_before_the_arithmetic(self, rng):
        """``dim - 2 * h`` of a far row is negative, never a uint16 wrap."""
        dim = 8192
        query = np.packbits(rng.integers(0, 2, dim, dtype=np.uint8))
        far = np.packbits(np.unpackbits(query) ^ 1)[np.newaxis]
        assert packed_dot_scores(far, query, dim).tolist() == [-dim]
        assert packed_dot_scores(far, query, dim, block_rows=1).tolist() == [-dim]
        assert packed_hamming_distance(np.repeat(far, 3, 0), query, 2).tolist() == [dim] * 3
