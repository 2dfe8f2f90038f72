"""Tests for candidate selection and FDR filtering."""

import numpy as np
import pytest

from repro.ms.spectrum import Spectrum
from repro.oms.candidates import CandidateIndex, WindowConfig
from repro.oms.fdr import (
    assign_qvalues,
    decoy_statistics,
    filter_at_fdr,
    grouped_fdr,
)
from repro.oms.psm import PSM, SearchResult, evaluate_against_truth


def reference(mass_mz, charge=2, identifier="r", decoy=False):
    return Spectrum(
        identifier=identifier,
        precursor_mz=mass_mz,
        precursor_charge=charge,
        mz=np.array([200.0, 300.0]),
        intensity=np.array([1.0, 1.0]),
        is_decoy=decoy,
    )


class TestCandidateIndex:
    def test_standard_window_tight(self):
        refs = [reference(500.0, 2, "a"), reference(500.02, 2, "b"), reference(600.0, 2, "c")]
        index = CandidateIndex(refs, WindowConfig(standard_tolerance_da=0.1))
        query = reference(500.01, 2, "q")
        positions = index.select_standard(query)
        assert sorted(positions.tolist()) == [0, 1]

    def test_open_window_includes_mass_shifts(self):
        refs = [reference(500.0, 2, "a"), reference(540.0, 2, "b"), reference(800.0, 2, "c")]
        index = CandidateIndex(refs, WindowConfig(open_window_da=100.0))
        # 540 m/z at charge 2 = +80 Da neutral shift from 500.
        query = reference(540.0, 2, "q")
        positions = index.select_open(query)
        assert sorted(positions.tolist()) == [0, 1]

    def test_charge_partitioning(self):
        refs = [reference(500.0, 2, "a"), reference(500.0, 3, "b")]
        index = CandidateIndex(refs, WindowConfig())
        query2 = reference(500.0, 2, "q2")
        assert index.select_open(query2).tolist() == [0]
        query3 = reference(500.0, 3, "q3")
        assert index.select_open(query3).tolist() == [1]

    def test_charge_agnostic_mode(self):
        refs = [reference(500.0, 2, "a"), reference(750.5, 3, "b")]
        # 2x500 and 3x750.5 give different neutral masses; use wide window.
        index = CandidateIndex(
            refs, WindowConfig(open_window_da=2000.0, charge_aware=False)
        )
        query = reference(500.0, 2, "q")
        assert len(index.select_open(query)) == 2

    def test_unknown_charge_returns_empty(self):
        refs = [reference(500.0, 2, "a")]
        index = CandidateIndex(refs, WindowConfig())
        query = reference(500.0, 5, "q")
        assert len(index.select_open(query)) == 0

    def test_window_edges_are_inclusive(self):
        refs = [reference(500.0, 2, "a"), reference(540.0, 2, "b")]
        index = CandidateIndex(refs, WindowConfig())
        low, high = refs[0].neutral_mass, refs[1].neutral_mass
        gap = high - low
        assert index.select_window(high, 2, gap).tolist() == [0, 1]
        assert index.select_window(low, 2, gap).tolist() == [0, 1]
        narrower = gap * (1 - 1e-12)
        assert index.select_window(high, 2, narrower).tolist() == [1]
        assert index.select_window(low, 2, narrower).tolist() == [0]

    def test_equal_masses_keep_library_order(self):
        refs = [reference(500.0, 2, "a"), reference(450.0, 2, "b"), reference(500.0, 2, "c")]
        index = CandidateIndex(refs, WindowConfig())
        assert index.select_window(refs[0].neutral_mass, 2, 0.0).tolist() == [0, 2]

    def test_positions_match_brute_force(self, small_workload):
        index = CandidateIndex(small_workload.references, WindowConfig())
        for query in small_workload.queries[:10]:
            expected = sorted(
                pos
                for pos, ref in enumerate(small_workload.references)
                if ref.precursor_charge == query.precursor_charge
                and abs(ref.neutral_mass - query.neutral_mass) <= 500.0
            )
            assert sorted(index.select_open(query).tolist()) == expected

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(standard_tolerance_da=0)
        with pytest.raises(ValueError):
            WindowConfig(standard_tolerance_da=10, open_window_da=1)


def make_psms(scores_targets, scores_decoys):
    psms = [
        PSM(f"q{i}", f"t{i}", f"PEP{i}K/2", score, False, 0.0)
        for i, score in enumerate(scores_targets)
    ]
    psms += [
        PSM(f"qd{i}", f"d{i}", f"DEC{i}K/2", score, True, 0.0)
        for i, score in enumerate(scores_decoys)
    ]
    return psms


class TestFdr:
    def test_qvalues_monotone_in_rank(self):
        psms = make_psms([10, 9, 8, 7, 6, 5], [5.5, 4])
        ordered = assign_qvalues(psms)
        qvalues = [psm.q_value for psm in ordered]
        assert qvalues == sorted(qvalues)

    def test_perfect_separation_accepts_all_targets(self):
        psms = make_psms([10, 9, 8, 7], [1, 2])
        accepted = filter_at_fdr(psms, 0.25)
        assert len(accepted) == 4
        assert all(not psm.is_decoy for psm in accepted)

    def test_interleaved_decoys_limit_acceptance(self):
        # decoy at the top: q-value of everything below >= 1/k
        psms = make_psms([10, 8, 6, 4], [11, 9])
        accepted = filter_at_fdr(psms, 0.01)
        assert len(accepted) == 0

    def test_decoys_never_accepted(self):
        psms = make_psms([10, 9], [8, 7])
        accepted = filter_at_fdr(psms, 1.0)
        assert all(not psm.is_decoy for psm in accepted)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        psms = make_psms(
            rng.normal(5, 1, 200).tolist(), rng.normal(3, 1, 200).tolist()
        )
        loose = filter_at_fdr(psms, 0.2)
        strict = filter_at_fdr(psms, 0.01)
        assert len(strict) <= len(loose)
        strict_ids = {psm.query_id for psm in strict}
        loose_ids = {psm.query_id for psm in loose}
        assert strict_ids <= loose_ids

    def test_grouped_fdr_separates_modes(self):
        # Open-mode PSMs score systematically lower; global FDR would
        # suppress them, subgroup FDR rescues the clean open group.
        standard = make_psms([10, 9.5, 9, 8.5], [2])
        open_targets = [
            PSM(f"qo{i}", f"to{i}", f"OPEN{i}K/2", 5 - 0.1 * i, False, 100.0)
            for i in range(4)
        ]
        open_decoy = [PSM("qod", "dod", "DECOYK/2", 1.0, True, 100.0)]
        all_psms = standard + open_targets + open_decoy
        accepted = grouped_fdr(all_psms, 0.3)
        open_accepted = [psm for psm in accepted if psm.is_modified_match]
        assert len(open_accepted) == 4

    def test_grouped_fdr_takes_a_custom_group_key(self):
        # All PSMs are standard; only a per-charge key keeps the charge-3
        # decoy on top from costing the clean charge-2 targets.
        charge2 = [PSM(f"q2{i}", f"t2{i}", f"PEP{i}K/2", 10.0 - i, False, 0.0) for i in range(3)]
        charge3 = [PSM(f"q3{i}", f"t3{i}", f"PEP{i}R/3", 7.0 - i, False, 0.0) for i in range(2)]
        decoy3 = [PSM("q3d", "d3", "DECOYR/3", 20.0, True, 0.0)]

        def by_charge(psm):
            return psm.peptide_key.rsplit("/", 1)[1]

        assert grouped_fdr(charge2 + charge3 + decoy3, 0.1) == []
        accepted = grouped_fdr(charge2 + charge3 + decoy3, 0.1, group_key=by_charge)
        assert sorted(psm.query_id for psm in accepted) == ["q20", "q21", "q22"]

    def test_decoy_statistics(self):
        psms = make_psms([1, 2, 3], [4])
        stats = decoy_statistics(psms)
        assert stats["num_targets"] == 3
        assert stats["num_decoys"] == 1
        assert stats["decoy_fraction"] == pytest.approx(0.25)


class TestSearchResultAndEvaluation:
    def test_accepted_requires_qvalues(self):
        result = SearchResult(psms=make_psms([5], []), num_queries=1)
        assert result.accepted(0.01) == []  # no q-values assigned yet
        assign_qvalues(result.psms)
        assert len(result.accepted(0.5)) == 1

    def test_identified_peptides_unique(self):
        psms = [
            PSM("q1", "r1", "PEPK/2", 10, False, 0.0, q_value=0.0),
            PSM("q2", "r1", "PEPK/2", 9, False, 0.0, q_value=0.0),
        ]
        result = SearchResult(psms=psms, num_queries=2)
        assert result.identified_peptides(0.01) == {"PEPK/2"}

    def test_evaluation_against_truth(self):
        psms = [
            PSM("q1", "r1", "AAAK/2", 10, False, 0.0, q_value=0.0),
            PSM("q2", "r2", "CCCK/2", 9, False, 0.0, q_value=0.0),
        ]
        truth = {"q1": "AAAK/2", "q2": "DDDK/2", "q3": "EEEK/2"}
        metrics = evaluate_against_truth(psms, truth)
        assert metrics["num_correct"] == 1
        assert metrics["precision"] == pytest.approx(0.5)
        assert metrics["recall"] == pytest.approx(1 / 3)

    def test_modified_match_flag(self):
        assert PSM("q", "r", None, 1, False, 80.0).is_modified_match
        assert not PSM("q", "r", None, 1, False, 0.01).is_modified_match
