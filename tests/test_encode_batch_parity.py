"""Scalar-vs-fused encode parity: the fused batch pipeline must be
bit-identical to per-spectrum encoding for every input shape.

The fused path (:meth:`SpectrumEncoder.accumulate_batch` /
:meth:`SpectrumEncoder.encode_batch`) concatenates all peaks, gathers
codebook rows with fancy indexing, and segment-sums per spectrum; the
scalar path walks one spectrum at a time.  Both are pure integer
arithmetic, so equality is exact — any mismatch is a bug, not noise.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc.encoder import SpectrumEncoder
from repro.hdc.packing import pack_bipolar
from repro.hdc.spaces import HDSpace, HDSpaceConfig
from repro.ms.preprocessing import preprocess
from repro.ms.spectrum import Spectrum
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig, SparseVector, vectorize

BINNING = BinningConfig(min_mz=100.0, max_mz=600.0, bin_width=1.0005)


def make_encoder(
    dim=256, num_levels=8, id_precision_bits=3, chunked=True, seed=23
):
    space = HDSpace(
        HDSpaceConfig(
            dim=dim,
            num_bins=BINNING.num_bins,
            num_levels=num_levels,
            id_precision_bits=id_precision_bits,
            chunked=chunked,
            seed=seed,
        )
    )
    return SpectrumEncoder(space, BINNING)


def empty_vector():
    return SparseVector(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        BINNING.num_bins,
    )


def random_vector(rng, max_peaks=64):
    num_peaks = int(rng.integers(1, max_peaks + 1))
    indices = np.sort(
        rng.choice(BINNING.num_bins, size=num_peaks, replace=False)
    ).astype(np.int64)
    values = rng.gamma(2.0, 50.0, size=num_peaks)
    return SparseVector(indices, values, BINNING.num_bins)


class TestEncodeBatchParity:
    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 24),
        precision=st.sampled_from([1, 2, 3]),
        chunked=st.booleans(),
        # 1000 is not a multiple of the 32 chunks; 1003 not of 8 either,
        # so its last packed byte carries pad bits.
        dim=st.sampled_from([8192, 1000, 1003]),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_spectra_bit_identical(
        self, seed, batch, precision, chunked, dim
    ):
        """Property: fused == scalar for random sparse vectors, packed or not."""
        encoder = make_encoder(
            dim=dim, id_precision_bits=precision, chunked=chunked, seed=seed % 7
        )
        rng = np.random.default_rng(seed)
        vectors = [random_vector(rng) for _ in range(batch)] + [empty_vector()]
        # More occupied bins than the widest (1-bit, 127-row) int8
        # partial sum holds, every bound row +|ID| in dimension 0 (equal
        # values all quantise to the top level): a partial sum over too
        # many rows would wrap there.
        space = encoder.space
        aligned = np.flatnonzero(space.id_bank[:, 0] * space.level_vectors[-1, 0] > 0)
        wide = np.sort(rng.choice(aligned, size=min(200, len(aligned)), replace=False))
        assert len(wide) > 127
        vectors.insert(
            int(rng.integers(0, batch + 1)),
            SparseVector(wide.astype(np.int64), np.full(len(wide), 7.0), BINNING.num_bins),
        )
        scalar = np.stack([encoder.encode_vector(vector) for vector in vectors])
        packed = encoder.encode_packed(vectors)
        assert packed.dtype == np.uint8 and packed.shape == (len(vectors), -(-dim // 8))
        assert np.array_equal(packed, pack_bipolar(scalar))
        assert not np.unpackbits(packed, axis=-1)[:, dim:].any()
        fused = encoder.encode_batch(vectors)
        assert fused.dtype == np.int8
        assert np.array_equal(fused, scalar)

    @given(seed=st.integers(0, 2**16), batch=st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_accumulate_batch_matches_scalar_accumulate(self, seed, batch):
        encoder = make_encoder(seed=seed % 5)
        rng = np.random.default_rng(seed)
        vectors = [random_vector(rng) for _ in range(batch)]
        accumulators = encoder.accumulate_batch(vectors)
        assert accumulators.dtype == np.int32
        for row, vector in enumerate(vectors):
            assert np.array_equal(
                accumulators[row], encoder.accumulate(vector)
            )

    def test_empty_sparse_vector_rows_take_tiebreak(self):
        encoder = make_encoder()
        rng = np.random.default_rng(3)
        vectors = [
            empty_vector(),
            random_vector(rng),
            empty_vector(),
            random_vector(rng),
            empty_vector(),
        ]
        fused = encoder.encode_batch(vectors)
        for row in (0, 2, 4):
            assert np.array_equal(fused[row], encoder.space.tiebreak)
        for row in (1, 3):
            assert np.array_equal(
                fused[row], encoder.encode_vector(vectors[row])
            )

    def test_all_empty_batch(self):
        encoder = make_encoder()
        fused = encoder.encode_batch([empty_vector(), empty_vector()])
        assert np.array_equal(
            fused, np.broadcast_to(encoder.space.tiebreak, fused.shape)
        )

    def test_zero_length_batch(self):
        encoder = make_encoder()
        fused = encoder.encode_batch([])
        assert fused.shape == (0, encoder.space.dim)
        assert fused.dtype == np.int8

    def test_single_peak_spectra(self):
        encoder = make_encoder()
        vectors = [
            SparseVector(
                np.array([bin_index], dtype=np.int64),
                np.array([42.0]),
                BINNING.num_bins,
            )
            for bin_index in (0, 7, BINNING.num_bins - 1)
        ]
        fused = encoder.encode_batch(vectors)
        for row, vector in enumerate(vectors):
            assert np.array_equal(fused[row], encoder.encode_vector(vector))

    def test_forced_zero_accumulator_tiebreak(self):
        """Two 1-bit-ID peaks cancel in ~half the dimensions, forcing
        the tiebreak path; fused and scalar must resolve identically."""
        encoder = make_encoder(id_precision_bits=1, num_levels=2, seed=5)
        vector = SparseVector(
            np.array([10, 11], dtype=np.int64),
            np.array([5.0, 5.0]),
            BINNING.num_bins,
        )
        accumulator = encoder.accumulate(vector)
        assert (accumulator == 0).any(), "fixture must exercise the tiebreak"
        fused = encoder.encode_batch([vector])
        assert np.array_equal(fused[0], encoder.encode_vector(vector))
        zero = accumulator == 0
        assert np.array_equal(fused[0][zero], encoder.space.tiebreak[zero])

    def test_mixed_spectrum_and_sparse_vector_input(self):
        encoder = make_encoder()
        workload = build_workload(
            WorkloadConfig(
                name="parity", num_references=6, num_queries=0, seed=4
            )
        )
        spectra = [preprocess(s) for s in workload.references]
        spectra = [s for s in spectra if s is not None]
        mixed = [
            spectra[0],
            vectorize(spectra[1], BINNING),
            empty_vector(),
            spectra[2],
        ]
        fused = encoder.encode_batch(mixed)
        assert np.array_equal(fused[0], encoder.encode(spectra[0]))
        assert np.array_equal(
            fused[1], encoder.encode_vector(vectorize(spectra[1], BINNING))
        )
        assert np.array_equal(fused[2], encoder.space.tiebreak)
        assert np.array_equal(fused[3], encoder.encode(spectra[2]))

    def test_zero_intensity_spectrum_quantises_to_level_zero(self):
        """A spectrum whose max intensity is 0 hits the scale<=0 branch."""
        encoder = make_encoder()
        vector = SparseVector(
            np.array([3, 9], dtype=np.int64),
            np.array([0.0, 0.0]),
            BINNING.num_bins,
        )
        fused = encoder.encode_batch([vector, random_vector(np.random.default_rng(1))])
        assert np.array_equal(fused[0], encoder.encode_vector(vector))

    def test_large_spectrum_spans_block_cap(self):
        """One spectrum bigger than the flat-peak block cap still works."""
        from repro.hdc import encoder as encoder_module

        encoder = make_encoder()
        rng = np.random.default_rng(8)
        big = random_vector(rng, max_peaks=BINNING.num_bins - 1)
        small = random_vector(rng, max_peaks=8)
        original_cap = encoder_module._MAX_FLAT_PEAKS
        encoder_module._MAX_FLAT_PEAKS = 16
        try:
            fused = encoder.encode_batch([small, big, small, big])
        finally:
            encoder_module._MAX_FLAT_PEAKS = original_cap
        for row, vector in enumerate([small, big, small, big]):
            assert np.array_equal(fused[row], encoder.encode_vector(vector))

    def test_out_of_range_bin_raises(self):
        encoder = make_encoder()
        bad = SparseVector(
            np.array([BINNING.num_bins], dtype=np.int64),
            np.array([1.0]),
            BINNING.num_bins,
        )
        with pytest.raises(IndexError):
            encoder.encode_batch([bad])
        negative = SparseVector(
            np.array([-1], dtype=np.int64), np.array([1.0]), BINNING.num_bins
        )
        with pytest.raises(IndexError):
            encoder.encode_batch([negative])


#: Chi-square critical values at p = 0.001 for 1, 3 and 7 degrees of
#: freedom (the 2-, 4- and 8-symbol ID alphabets).
CHI2_CRITICAL_P001 = {1: 10.828, 3: 16.266, 7: 24.322}


#: SHA-1 of ``HDSpace(config).id_bank.tobytes()``: the realised ID
#: codebook of index format 2.  A faster draw that is only *statistically*
#: equal (``bit_generator.random_raw``, say) changes these — and every
#: stored hypervector with them.  ``dim=8193`` and ``dim=100`` make a
#: chunk's byte count not a multiple of 4, and ``num_bins=6000`` at
#: ``dim=100`` spans several chunks.  At ``dim=1001`` a chunk that is not
#: the last takes an odd number of 32-bit draws, so a draw that throws
#: away the unused half of a 64-bit output shifts every later chunk.
PINNED_BANK_SHA1 = {
    "default": (HDSpaceConfig(), "ed2f2df167ccbb8544455eb1c72a963bc7687cc8"),
    "dim8193-bins200": (
        HDSpaceConfig(dim=8193, num_bins=200),
        "c357564ed1589c2a2cd6cbdb5f60071e5b9a47ee",
    ),
    "dim100-bins6000": (
        HDSpaceConfig(dim=100, num_bins=6000),
        "840ec23840498f3bd1bf2e561bc2271899b234f2",
    ),
    "dim1001-bins1400": (
        HDSpaceConfig(dim=1001, num_bins=1400),
        "871257cf25242529907806ac4a30c7027cf2cd72",
    ),
    "1-bit": (
        HDSpaceConfig(dim=1024, num_bins=700, id_precision_bits=1, seed=5),
        "e418f8f38cd681ed6728b555edf4de030996bfd0",
    ),
    "2-bit": (
        HDSpaceConfig(dim=2050, num_bins=300, id_precision_bits=2, seed=9),
        "99d7101a23b302c2fd466bf936f3272caf815d12",
    ),
}


class TestIdBank:
    @pytest.mark.parametrize("name", sorted(PINNED_BANK_SHA1))
    def test_bank_realisation_is_pinned(self, name):
        config, digest = PINNED_BANK_SHA1[name]
        bank = HDSpace(config).id_bank
        assert bank.shape == (config.num_bins, config.dim)
        assert hashlib.sha1(bank.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("bits, magnitude", [(1, 1), (2, 2), (3, 4)])
    def test_symbols_are_uniform_under_chi_square(self, bits, magnitude):
        space = HDSpace(
            HDSpaceConfig(dim=1024, num_bins=256, num_levels=4, id_precision_bits=bits, seed=9)
        )
        _values, counts = np.unique(space.id_bank, return_counts=True)
        expected = space.id_bank.size / (2 * magnitude)
        statistic = float(np.sum((counts - expected) ** 2 / expected))
        assert statistic < CHI2_CRITICAL_P001[2 * magnitude - 1]

    def test_one_seed_one_bank(self):
        config = HDSpaceConfig(dim=256, num_bins=40, num_levels=4, seed=13)
        bank = HDSpace(config).id_bank
        assert np.array_equal(bank, HDSpace(config).id_bank)
        other = HDSpace(HDSpaceConfig(dim=256, num_bins=40, num_levels=4, seed=14)).id_bank
        assert not np.array_equal(bank, other)

    def test_bank_is_read_only(self):
        space = HDSpace(HDSpaceConfig(dim=64, num_bins=10, num_levels=4, seed=1))
        bank = space.id_bank
        assert bank is space.id_bank  # drawn once
        with pytest.raises(ValueError):
            bank[0, 0] = 3

    def test_drawing_the_bank_allocates_little_beyond_it(self):
        # The paper-size codebook (1 400 x 8 192): the draw fills the
        # bank chunk by chunk, so it never holds a bank-sized temporary.
        space = HDSpace(HDSpaceConfig())
        tracemalloc.start()
        try:
            bank = space.id_bank
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bank.nbytes == 1400 * 8192
        assert peak < 1.25 * bank.nbytes

    def test_id_matrix_accepts_ndarray_and_list(self):
        space = HDSpace(
            HDSpaceConfig(dim=64, num_bins=12, num_levels=4, seed=2)
        )
        from_list = space.id_matrix([1, 5, 5, 0])
        from_array = space.id_matrix(np.array([1, 5, 5, 0], dtype=np.int64))
        assert np.array_equal(from_list, from_array)
        for row, b in enumerate((1, 5, 5, 0)):
            assert np.array_equal(from_list[row], space.id_vector(b))

    def test_id_matrix_bounds(self):
        space = HDSpace(
            HDSpaceConfig(dim=64, num_bins=12, num_levels=4, seed=2)
        )
        with pytest.raises(IndexError):
            space.id_matrix(np.array([12]))
        with pytest.raises(IndexError):
            space.id_matrix([-1])
        assert space.id_matrix(np.empty(0, dtype=np.int64)).shape == (0, 64)


class TestSearcherEncodingParity:
    def test_search_matches_search_one(self):
        """The block-encoding search loop is bit-identical to per-query
        search_one calls, including BER injection draw order."""
        from repro.oms.candidates import WindowConfig
        from repro.oms.search import HDOmsSearcher, HDSearchConfig

        workload = build_workload(
            WorkloadConfig(
                name="parity-search",
                num_references=40,
                num_queries=12,
                seed=6,
            )
        )
        binning = BinningConfig()
        space = HDSpace(
            HDSpaceConfig(
                dim=512, num_bins=binning.num_bins, num_levels=8, seed=3
            )
        )
        encoder = SpectrumEncoder(space, binning)
        for mode in ("open", "standard", "cascade"):
            config = HDSearchConfig(mode=mode, query_ber=0.01, noise_seed=77)
            blocked = HDOmsSearcher(
                encoder,
                workload.references,
                windows=WindowConfig(),
                config=config,
            ).search(workload.queries)
            one_by_one = HDOmsSearcher(
                encoder,
                workload.references,
                windows=WindowConfig(),
                config=config,
            )
            expected = [
                one_by_one.search_one(query) for query in workload.queries
            ]
            expected = [psm for psm in expected if psm is not None]
            assert blocked.psms == expected, mode
