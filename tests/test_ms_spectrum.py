"""Tests for the Spectrum container."""

import numpy as np
import pytest

from repro.ms.peptide import Peptide
from repro.ms.spectrum import Spectrum


def make_spectrum(**overrides):
    defaults = dict(
        identifier="s1",
        precursor_mz=500.25,
        precursor_charge=2,
        mz=np.array([100.0, 200.0, 300.0]),
        intensity=np.array([1.0, 5.0, 2.0]),
    )
    defaults.update(overrides)
    return Spectrum(**defaults)


class TestConstruction:
    def test_basic_construction(self):
        spectrum = make_spectrum()
        assert len(spectrum) == 3
        assert spectrum.mz.dtype == np.float64
        assert spectrum.intensity.dtype == np.float32

    def test_peaks_sorted_on_construction(self):
        spectrum = make_spectrum(
            mz=np.array([300.0, 100.0, 200.0]),
            intensity=np.array([3.0, 1.0, 2.0]),
        )
        assert np.array_equal(spectrum.mz, [100.0, 200.0, 300.0])
        assert np.array_equal(spectrum.intensity, [1.0, 2.0, 3.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="same length"):
            make_spectrum(intensity=np.array([1.0]))

    def test_negative_intensity_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_spectrum(intensity=np.array([1.0, -2.0, 3.0]))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"intensity": np.array([1.0, np.inf, 3.0])},
            {"intensity": np.array([1.0, np.nan, 3.0])},
            {"mz": np.array([100.0, np.nan, 300.0])},
            {"mz": np.array([100.0, 200.0, np.inf])},
            {"precursor_mz": np.nan},
            {"precursor_mz": np.inf},
        ],
    )
    def test_non_finite_values_raise(self, overrides):
        with pytest.raises(ValueError, match="finite"):
            make_spectrum(**overrides)

    def test_bad_charge_raises(self):
        with pytest.raises(ValueError, match="precursor_charge"):
            make_spectrum(precursor_charge=0)

    def test_bad_precursor_mz_raises(self):
        with pytest.raises(ValueError, match="precursor_mz"):
            make_spectrum(precursor_mz=-5.0)

    def test_empty_spectrum_allowed(self):
        spectrum = make_spectrum(mz=np.empty(0), intensity=np.empty(0))
        assert len(spectrum) == 0
        assert spectrum.base_peak_intensity == 0.0


class TestProperties:
    def test_neutral_mass(self):
        spectrum = make_spectrum(precursor_mz=500.0, precursor_charge=2)
        assert spectrum.neutral_mass == pytest.approx(
            2 * 500.0 - 2 * 1.007276466621
        )

    def test_base_peak_and_tic(self):
        spectrum = make_spectrum()
        assert spectrum.base_peak_intensity == pytest.approx(5.0)
        assert spectrum.total_ion_current == pytest.approx(8.0)

    def test_peptide_key_with_annotation(self):
        spectrum = make_spectrum(peptide=Peptide("PEPTIDEK"))
        assert spectrum.peptide_key() == "PEPTIDEK/2"

    def test_peptide_key_without_annotation(self):
        assert make_spectrum().peptide_key() is None

    def test_copy_with_peaks_preserves_metadata(self):
        spectrum = make_spectrum(peptide=Peptide("ACDK"), is_decoy=True)
        copy = spectrum.copy_with_peaks(
            np.array([150.0]), np.array([1.0])
        )
        assert copy.peptide is spectrum.peptide
        assert copy.is_decoy
        assert len(copy) == 1
        assert len(spectrum) == 3  # original untouched
