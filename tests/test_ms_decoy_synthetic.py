"""Tests for decoy generation and the synthetic workload builder."""

import random

import numpy as np
import pytest

from repro.ms.decoy import (
    append_decoys,
    iter_decoys,
    reverse_sequence,
    shuffle_sequence,
)
from repro.ms.modifications import COMMON_MODIFICATIONS, ModificationSampler
from repro.ms.peptide import Peptide
from repro.ms.synthetic import (
    PeptideSampler,
    REFERENCE_NOISE,
    SpectrumSimulator,
    WorkloadConfig,
    build_workload,
    scaled_config,
)


class TestDecoySequences:
    def test_shuffle_preserves_composition_and_terminus(self):
        rng = random.Random(1)
        sequence = "ELVISLIVESK"
        decoy = shuffle_sequence(sequence, rng)
        assert sorted(decoy) == sorted(sequence)
        assert decoy[-1] == sequence[-1]
        assert decoy != sequence

    def test_reverse_sequence(self):
        assert reverse_sequence("ABCDK") == "DCBAK"
        assert reverse_sequence("AK") == "AK"

    def test_decoy_spectrum_preserves_precursor(self, small_workload):
        simulator = SpectrumSimulator(seed=0)
        def factory(pep, charge, ident):
            return simulator.spectrum(pep, charge, ident, noise=REFERENCE_NOISE)
        reference = small_workload.references[0]
        decoy = next(iter_decoys([reference], factory, seed=2))
        assert decoy.is_decoy
        # Shuffling preserves the residue multiset, hence the mass.
        assert decoy.neutral_mass == pytest.approx(
            reference.neutral_mass, abs=1e-6
        )
        assert decoy.precursor_charge == reference.precursor_charge

    def test_append_decoys_doubles_library(self, small_workload):
        simulator = SpectrumSimulator(seed=0)
        def factory(pep, charge, ident):
            return simulator.spectrum(pep, charge, ident, noise=REFERENCE_NOISE)
        library = append_decoys(small_workload.references, factory, seed=3)
        targets = [s for s in library if not s.is_decoy]
        decoys = [s for s in library if s.is_decoy]
        assert len(targets) == len(small_workload.references)
        # Nearly every target yields a decoy (degenerate sequences may not).
        assert len(decoys) >= 0.9 * len(targets)

    def test_append_decoys_deterministic(self, small_workload):
        simulator = SpectrumSimulator(seed=0)
        def factory(pep, charge, ident):
            return simulator.spectrum(pep, charge, ident, noise=REFERENCE_NOISE)
        a = append_decoys(small_workload.references, factory, seed=3)
        b = append_decoys(small_workload.references, factory, seed=3)
        assert [s.identifier for s in a] == [s.identifier for s in b]


class TestModificationSampler:
    def test_sampled_modification_is_valid(self):
        sampler = ModificationSampler(rng=random.Random(5))
        for _ in range(50):
            modification = sampler.sample("ELVISLIVESK")
            assert modification is not None
            mod_type = next(
                m for m in COMMON_MODIFICATIONS if m.name == modification.name
            )
            residue = "ELVISLIVESK"[modification.position]
            assert mod_type.applies_to(residue)

    def test_eligible_sites(self):
        sampler = ModificationSampler(rng=random.Random(5))
        phospho = next(m for m in COMMON_MODIFICATIONS if m.name == "Phospho")
        assert sampler.eligible_sites("STYAK", phospho) == [0, 1, 2]


class TestPeptideSampler:
    def test_unique_tryptic_sequences(self):
        sampler = PeptideSampler(min_length=7, max_length=12, seed=1)
        sequences = sampler.sample_many(200)
        assert len(set(sequences)) == 200
        assert all(s[-1] in "KR" for s in sequences)
        assert all(7 <= len(s) <= 12 for s in sequences)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeptideSampler(min_length=1)
        with pytest.raises(ValueError):
            PeptideSampler(min_length=10, max_length=5)


class TestSpectrumSimulator:
    def test_pattern_deterministic_per_sequence(self):
        simulator = SpectrumSimulator(seed=3)
        b1, y1 = simulator.base_pattern("ELVISLIVESK")
        b2, y2 = simulator.base_pattern("ELVISLIVESK")
        assert np.array_equal(b1, b2)
        assert np.array_equal(y1, y2)

    def test_modified_and_unmodified_share_pattern(self):
        """The core OMS geometry: same fragmentation, shifted masses."""
        simulator = SpectrumSimulator(seed=3)
        from repro.ms.modifications import Modification

        base = Peptide("ELVISLIVESK")
        modified = base.with_modification(Modification("Methyl", 10, 14.01565))
        b_base, _ = simulator.base_pattern(base.sequence)
        b_mod, _ = simulator.base_pattern(modified.sequence)
        assert np.array_equal(b_base, b_mod)

    def test_spectrum_precursor_matches_peptide(self):
        simulator = SpectrumSimulator(seed=3)
        peptide = Peptide("SAMPLEPEPTIDEK")
        spectrum = simulator.spectrum(peptide, 2, "x", noise=REFERENCE_NOISE)
        assert spectrum.precursor_mz == pytest.approx(
            peptide.precursor_mz(2), abs=1e-9
        )
        assert spectrum.peptide is peptide

    def test_reference_spectrum_contains_most_fragments(self):
        simulator = SpectrumSimulator(seed=3)
        peptide = Peptide("ELVISLIVESK")
        spectrum = simulator.spectrum(peptide, 2, "y", noise=REFERENCE_NOISE)
        fragments = peptide.fragment_mzs()
        in_range = fragments[(fragments >= 100) & (fragments <= 1500)]
        matched = sum(
            1
            for mz in in_range
            if np.min(np.abs(spectrum.mz - mz)) < 0.05
        )
        assert matched >= 0.9 * len(in_range)


class TestBuildWorkload:
    def test_sizes(self, small_workload):
        assert len(small_workload.references) == 60
        assert len(small_workload.queries) == 24
        assert len(small_workload.truth) == 24

    def test_determinism(self):
        config = WorkloadConfig(name="d", num_references=30, num_queries=10, seed=5)
        a = build_workload(config)
        b = build_workload(config)
        assert [s.identifier for s in a.queries] == [s.identifier for s in b.queries]
        assert np.array_equal(a.queries[0].mz, b.queries[0].mz)

    def test_foreign_queries_have_no_truth(self, small_workload):
        foreign = [
            q for q in small_workload.queries if "foreign" in q.identifier
        ]
        assert foreign, "expected some foreign queries"
        for query in foreign:
            assert small_workload.truth[query.identifier] is None

    def test_library_queries_truth_points_at_library(self, small_workload):
        library_keys = {
            ref.peptide_key() for ref in small_workload.references
        }
        for query in small_workload.queries:
            truth = small_workload.truth[query.identifier]
            if truth is not None:
                assert truth in library_keys

    def test_modified_queries_have_mass_shift(self, small_workload):
        for query in small_workload.queries:
            if query.peptide is not None and query.peptide.is_modified:
                unmodified_mass = query.peptide.unmodified().neutral_mass
                assert abs(query.neutral_mass - unmodified_mass) > 0.5

    def test_scaled_config(self):
        base = WorkloadConfig(name="s", num_references=100, num_queries=50)
        half = scaled_config(base, 0.5)
        assert half.num_references == 50
        assert half.num_queries == 25
        with pytest.raises(ValueError):
            scaled_config(base, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(modification_probability=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(foreign_fraction=-0.1)
        with pytest.raises(ValueError):
            WorkloadConfig(num_references=0)
