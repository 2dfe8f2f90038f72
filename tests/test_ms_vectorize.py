"""Tests for m/z binning and sparse vectors."""

import numpy as np
import pytest

from repro.ms.spectrum import Spectrum
from repro.ms.vectorize import (
    BinningConfig,
    cosine_similarity,
    quantize_intensities,
    vectorize,
    vectorize_many,
)


def spectrum_with(mz, intensity):
    return Spectrum(
        identifier="v",
        precursor_mz=700.0,
        precursor_charge=2,
        mz=np.asarray(mz, float),
        intensity=np.asarray(intensity, float),
    )


class TestBinningConfig:
    def test_num_bins(self):
        config = BinningConfig(min_mz=100.0, max_mz=200.0, bin_width=1.0)
        assert config.num_bins == 100

    def test_bin_index(self):
        config = BinningConfig(min_mz=100.0, max_mz=200.0, bin_width=1.0)
        assert config.bin_index(np.array([100.0, 100.9, 199.9])).tolist() == [0, 0, 99]

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            BinningConfig(bin_width=0.0)
        with pytest.raises(ValueError):
            BinningConfig(min_mz=500, max_mz=100)


class TestVectorize:
    def test_intensities_summed_within_bin(self):
        config = BinningConfig(min_mz=100.0, max_mz=200.0, bin_width=1.0)
        vector = vectorize(spectrum_with([150.2, 150.7], [1.0, 2.0]), config)
        assert len(vector) == 1
        assert vector.values[0] == pytest.approx(3.0)

    def test_out_of_range_peaks_dropped(self):
        config = BinningConfig(min_mz=100.0, max_mz=200.0, bin_width=1.0)
        vector = vectorize(spectrum_with([50.0, 150.0, 250.0], [1, 1, 1]), config)
        assert len(vector) == 1

    def test_empty_spectrum(self):
        config = BinningConfig()
        vector = vectorize(spectrum_with([], []), config)
        assert len(vector) == 0
        assert vector.norm == 0.0

    def test_indices_sorted_unique(self, small_workload, binning):
        vector = vectorize(small_workload.references[0], binning)
        assert np.all(np.diff(vector.indices) > 0)

    def test_to_dense_roundtrip(self):
        config = BinningConfig(min_mz=100.0, max_mz=110.0, bin_width=1.0)
        vector = vectorize(spectrum_with([101.5, 105.5], [2.0, 3.0]), config)
        dense = vector.to_dense()
        assert dense.shape == (10,)
        assert dense[1] == pytest.approx(2.0)
        assert dense[5] == pytest.approx(3.0)
        assert dense.sum() == pytest.approx(5.0)


def reference_vectorize(spectrum, config):
    """One spectrum binned on its own: unique bins, intensities summed in peak order."""
    mask = (spectrum.mz >= config.min_mz) & (spectrum.mz < config.max_mz)
    bins = config.bin_index(spectrum.mz[mask])
    if len(bins) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    unique_bins, inverse = np.unique(bins, return_inverse=True)
    summed = np.zeros(len(unique_bins), dtype=np.float64)
    np.add.at(summed, inverse, spectrum.intensity[mask].astype(np.float64))
    return unique_bins, summed


class TestVectorizeMany:
    def test_equals_vectorize_spectrum_by_spectrum(self, small_workload):
        """Shared bins, out-of-range peaks and empty spectra, all in one batch."""
        config = BinningConfig(min_mz=200.0, max_mz=900.0, bin_width=1.0005)
        spectra = [
            spectrum_with([150.0, 250.1, 250.2, 250.3, 899.99, 950.0], [1, 2, 3, 4, 5, 6]),
            spectrum_with([], []),
            spectrum_with([100.0, 1000.0], [7, 8]),
            *small_workload.references[:20],
        ]
        batched = vectorize_many(spectra, config)
        assert len(batched) == len(spectra)
        for spectrum, vector in zip(spectra, batched):
            assert vector.num_bins == config.num_bins
            for ours, theirs in zip(
                (vector.indices, vector.values), reference_vectorize(spectrum, config)
            ):
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        assert vectorize_many([], config) == []


class TestCosine:
    def test_self_similarity_is_one(self):
        config = BinningConfig(min_mz=100.0, max_mz=200.0, bin_width=1.0)
        vector = vectorize(spectrum_with([120, 130, 140], [1, 2, 3]), config)
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    def test_disjoint_vectors_zero(self):
        config = BinningConfig(min_mz=100.0, max_mz=200.0, bin_width=1.0)
        a = vectorize(spectrum_with([120], [1.0]), config)
        b = vectorize(spectrum_with([130], [1.0]), config)
        assert cosine_similarity(a, b) == 0.0

    def test_symmetry(self):
        config = BinningConfig(min_mz=100.0, max_mz=200.0, bin_width=1.0)
        a = vectorize(spectrum_with([120, 140], [1.0, 2.0]), config)
        b = vectorize(spectrum_with([120, 160], [3.0, 1.0]), config)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))

    def test_empty_vector_zero(self):
        config = BinningConfig()
        a = vectorize(spectrum_with([], []), config)
        b = vectorize(spectrum_with([120], [1.0]), config)
        assert cosine_similarity(a, b) == 0.0


class TestQuantize:
    def test_levels_in_range(self):
        values = np.array([0.0, 0.3, 0.5, 1.0])
        levels, scale = quantize_intensities(values, 16)
        assert scale == pytest.approx(1.0)
        assert levels.min() >= 0
        assert levels.max() == 15

    def test_max_value_gets_top_level(self):
        levels, _ = quantize_intensities(np.array([0.1, 1.0]), 8)
        assert levels[1] == 7

    def test_monotone_in_value(self):
        values = np.linspace(0, 1, 50)
        levels, _ = quantize_intensities(values, 16)
        assert np.all(np.diff(levels) >= 0)

    def test_zero_values(self):
        levels, scale = quantize_intensities(np.zeros(4), 16)
        assert scale == 0.0
        assert np.all(levels == 0)

    def test_empty(self):
        levels, scale = quantize_intensities(np.empty(0), 16)
        assert len(levels) == 0

    def test_too_few_levels_raises(self):
        with pytest.raises(ValueError):
            quantize_intensities(np.array([1.0]), 1)
