"""Tests for spectrum preprocessing (paper Section 3.1)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ms.preprocessing import (
    PreprocessingConfig,
    is_high_quality,
    preprocess,
    preprocess_many,
)
from repro.ms.spectrum import Spectrum


def spectrum_with(mz, intensity, **kw):
    defaults = dict(identifier="p", precursor_mz=600.0, precursor_charge=2)
    defaults.update(kw)
    return Spectrum(mz=np.asarray(mz, float), intensity=np.asarray(intensity, float), **defaults)


def only(**step):
    """A config that runs one step: no threshold, no precursor cut, no QC, no scaling."""
    settings = dict(
        min_intensity_fraction=0.0, remove_precursor_tolerance=None, min_peaks=0,
        scaling="none",
    )
    return PreprocessingConfig(**{**settings, **step})


def _proportional(values, expected):
    expected = np.asarray(expected, dtype=np.float64)
    return values == pytest.approx(expected / np.linalg.norm(expected))


class TestRangeAndPrecursor:
    def test_restrict_mz_range(self):
        spectrum = spectrum_with([50, 150, 1600], [1, 2, 3])
        out = preprocess(spectrum, only(min_mz=100, max_mz=1500))
        assert np.array_equal(out.mz, [150.0])

    def test_remove_precursor_peaks(self):
        spectrum = spectrum_with([599.0, 600.5, 800.0], [1, 5, 2])
        out = preprocess(spectrum, only(remove_precursor_tolerance=1.5))
        assert np.array_equal(out.mz, [800.0])


class TestIntensityFilter:
    def test_threshold_relative_to_base_peak(self):
        spectrum = spectrum_with([100, 200, 300], [100.0, 0.5, 50.0])
        out = preprocess(spectrum, only(min_intensity_fraction=0.01))
        assert 200.0 not in out.mz  # 0.5 < 1% of 100
        assert len(out) == 2

    def test_max_peaks_keeps_most_intense(self):
        mz = np.arange(100, 200, dtype=float)
        intensity = np.arange(100, dtype=float) + 1
        spectrum = spectrum_with(mz, intensity)
        out = preprocess(spectrum, only(max_peaks=10))
        assert len(out) == 10
        assert out.mz.min() >= 190  # the ten most intense peaks

    def test_result_remains_sorted_by_mz(self):
        mz = np.arange(100, 160, dtype=float)
        intensity = np.linspace(60, 1, 60)
        out = preprocess(spectrum_with(mz, intensity), only(max_peaks=20))
        assert np.all(np.diff(out.mz) > 0)

    def test_empty_spectrum_passthrough(self):
        spectrum = spectrum_with([], [])
        assert len(preprocess(spectrum, only())) == 0


class TestScaling:
    def test_sqrt_scaling(self):
        spectrum = spectrum_with([100, 200], [4.0, 16.0])
        out = preprocess(spectrum, only(scaling="sqrt"))
        assert _proportional(out.intensity, [2.0, 4.0])

    def test_rank_scaling(self):
        spectrum = spectrum_with([100, 200, 300], [5.0, 1.0, 3.0])
        out = preprocess(spectrum, only(scaling="rank"))
        assert _proportional(out.intensity, [3.0, 1.0, 2.0])

    def test_none_scaling_is_identity(self):
        spectrum = spectrum_with([100, 200], [7.0, 2.0])
        out = preprocess(spectrum, only(scaling="none"))
        assert _proportional(out.intensity, [7.0, 2.0])

    def test_unknown_scaling_raises(self):
        with pytest.raises(ValueError):
            only(scaling="log")

    def test_normalize_unit_norm(self):
        spectrum = spectrum_with([100, 200], [3.0, 4.0])
        out = preprocess(spectrum, only())
        assert np.linalg.norm(out.intensity) == pytest.approx(1.0)

    def test_normalize_zero_spectrum_safe(self):
        spectrum = spectrum_with([100], [0.0])
        out = preprocess(spectrum, only())
        assert out.intensity == pytest.approx([0.0])


class TestFullChain:
    def test_preprocess_returns_none_for_sparse_spectra(self):
        spectrum = spectrum_with([150, 250], [1.0, 2.0])
        assert preprocess(spectrum) is None

    def test_preprocess_full_chain(self, small_workload):
        out = preprocess(small_workload.queries[0])
        assert out is not None
        assert len(out) >= 5
        assert np.linalg.norm(out.intensity) == pytest.approx(1.0, abs=1e-5)
        assert out.mz.min() >= 100.0
        assert out.mz.max() <= 1500.0

    def test_preprocess_is_deterministic(self, small_workload):
        a = preprocess(small_workload.queries[1])
        b = preprocess(small_workload.queries[1])
        assert np.array_equal(a.mz, b.mz)
        assert np.array_equal(a.intensity, b.intensity)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreprocessingConfig(min_mz=1500, max_mz=100)
        with pytest.raises(ValueError):
            PreprocessingConfig(min_intensity_fraction=1.5)
        with pytest.raises(ValueError):
            PreprocessingConfig(scaling="cube")

    def test_quality_gate(self):
        good = spectrum_with(
            np.linspace(100, 800, 20), np.ones(20)
        )
        assert is_high_quality(good)
        narrow = spectrum_with(
            np.linspace(100, 150, 20), np.ones(20)
        )
        assert not is_high_quality(narrow)


def _chained(spectrum, config):
    """The five preprocessing steps composed one by one: the one-pass oracle."""
    mz, intensity = spectrum.mz, spectrum.intensity
    keep = (mz >= config.min_mz) & (mz <= config.max_mz)
    mz, intensity = mz[keep], intensity[keep]
    if config.remove_precursor_tolerance is not None:
        keep = np.abs(mz - spectrum.precursor_mz) > config.remove_precursor_tolerance
        mz, intensity = mz[keep], intensity[keep]
    if len(mz):
        keep = intensity >= float(intensity.max()) * config.min_intensity_fraction
        mz, intensity = mz[keep], intensity[keep]
        if len(mz) > config.max_peaks:
            # stable sort on negative intensity keeps low-m/z winners on ties
            top = np.sort(np.argsort(-intensity, kind="stable")[: config.max_peaks])
            mz, intensity = mz[top], intensity[top]
    if len(mz) < config.min_peaks:
        return None
    if config.scaling == "sqrt" and len(mz):
        intensity = np.sqrt(intensity.astype(np.float64))
    elif config.scaling == "rank" and len(mz):
        ranks = np.empty(len(mz), dtype=np.float64)
        ranks[np.argsort(intensity, kind="stable")] = np.arange(1, len(mz) + 1)
        intensity = ranks
    scaled = spectrum.copy_with_peaks(mz, intensity)
    norm = float(np.linalg.norm(scaled.intensity))
    if norm == 0.0:
        return scaled
    return scaled.copy_with_peaks(scaled.mz, scaled.intensity / norm)


class TestOnePassParity:
    @given(
        seed=st.integers(0, 2**16),
        num_peaks=st.integers(0, 40),
        scaling=st.sampled_from(["sqrt", "rank", "none"]),
        tolerance=st.sampled_from([None, 1.5, 40.0]),
        max_peaks=st.integers(1, 12),
        min_peaks=st.sampled_from([0, 1, 5, 20]),
        intensities=st.sampled_from(["ties", "continuous", "zeros"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_chain_array_for_array(
        self, seed, num_peaks, scaling, tolerance, max_peaks, min_peaks, intensities
    ):
        """``preprocess`` == the five steps chained, values and dtypes.

        Intensities drawn from a few integers tie at the ``max_peaks``
        cut; all-zero spectra skip normalisation; ``min_peaks`` up to 20
        drops many spectra.
        """
        rng = np.random.default_rng(seed)
        mz = np.sort(rng.uniform(50.0, 1600.0, num_peaks))
        if intensities == "ties":
            intensity = rng.choice([1.0, 2.0, 5.0, 10.0], num_peaks)
        elif intensities == "continuous":
            intensity = rng.gamma(2.0, 50.0, num_peaks)
        else:
            intensity = np.zeros(num_peaks)
        spectrum = spectrum_with(mz, intensity, precursor_mz=float(rng.uniform(300, 900)))
        config = PreprocessingConfig(
            scaling=scaling,
            remove_precursor_tolerance=tolerance,
            max_peaks=max_peaks,
            min_peaks=min_peaks,
        )
        got, expected = preprocess(spectrum, config), _chained(spectrum, config)
        if expected is None:
            assert got is None
            return
        for field in dataclasses.fields(Spectrum):
            ours, theirs = getattr(got, field.name), getattr(expected, field.name)
            if isinstance(theirs, np.ndarray):
                assert ours.dtype == theirs.dtype, field.name
                assert np.array_equal(ours, theirs), field.name
            else:
                assert ours == theirs, field.name


class TestTrustedOutputs:
    def test_block_outputs_equal_the_validated_construction(self):
        """Outputs skip ``__post_init__`` yet equal what it would build.

        A mixed block: a kept spectrum, one QC drops, one over
        ``max_peaks`` and one whose peaks all survive unscaled.
        """
        rng = np.random.default_rng(7)
        kept = spectrum_with(np.sort(rng.uniform(150, 1400, 30)), rng.gamma(2.0, 50.0, 30))
        dropped = spectrum_with([200.0, 300.0], [5.0, 6.0], identifier="qc")
        crowded = spectrum_with(
            np.linspace(120, 1450, 400), rng.choice([1.0, 2.0, 9.0], 400),
            identifier="crowded", retention_time=12.5, is_decoy=True,
        )
        zeros = spectrum_with(np.linspace(120, 1450, 8), np.zeros(8), identifier="zeros")
        block = [kept, dropped, crowded, zeros]
        for config in (PreprocessingConfig(max_peaks=150), only(min_peaks=5)):
            outputs = preprocess_many(block, config)
            assert outputs[1] is None
            assert len(outputs[2]) <= config.max_peaks
            for spectrum, out in zip(block, outputs):
                if out is None:
                    continue
                rebuilt = Spectrum(**{**vars(out)})
                for field in dataclasses.fields(Spectrum):
                    ours, theirs = getattr(out, field.name), getattr(rebuilt, field.name)
                    if isinstance(theirs, np.ndarray):
                        assert ours.dtype == theirs.dtype, field.name
                        assert ours.ndim == 1, field.name
                        assert np.array_equal(ours, theirs), field.name
                    else:
                        assert ours == theirs, field.name
                assert out.identifier == spectrum.identifier
                assert type(out) is Spectrum
                assert np.all(out.mz[1:] >= out.mz[:-1])
                assert np.isfinite(out.intensity).all() and (out.intensity >= 0).all()

    def test_wire_and_file_spectra_stay_validated(self):
        """Only preprocessing skips the checks: a bad spectrum still raises."""
        with pytest.raises(ValueError):
            spectrum_with([100.0, float("nan")], [1.0, 2.0])
        with pytest.raises(ValueError):
            spectrum_with([100.0, 200.0], [1.0, 2.0]).copy_with_peaks(
                np.array([100.0]), np.array([-1.0])
            )
