"""Tests for the ANN-SoLo-like, HyperOMS-like, and brute-force baselines."""

import numpy as np
import pytest

from repro.baselines.annsolo import AnnSoloSearcher, shifted_dot_product
from repro.baselines.brute_force import BruteForceSearcher
from repro.baselines.hyperoms import HyperOmsSearcher
from repro.ms.vectorize import SparseVector


def sparse(indices, values, num_bins=100):
    return SparseVector(
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        num_bins,
    )


class TestShiftedDotProduct:
    def test_zero_shift_equals_cosine_for_identical(self):
        vector = sparse([3, 10, 40], [1.0, 2.0, 3.0])
        assert shifted_dot_product(vector, vector, 0) == pytest.approx(1.0)

    def test_shift_recovers_displaced_peaks(self):
        reference = sparse([10, 20, 30], [1.0, 1.0, 1.0])
        # All query peaks displaced +5 bins: a plain cosine sees nothing,
        # the SDP with shift 5 sees everything.
        query = sparse([15, 25, 35], [1.0, 1.0, 1.0])
        assert shifted_dot_product(query, reference, 0) == pytest.approx(0.0)
        assert shifted_dot_product(query, reference, 5) == pytest.approx(1.0)

    def test_partial_shift_mixture(self):
        """Half the fragments shifted (the realistic OMS case)."""
        reference = sparse([10, 20, 30, 40], [1.0, 1.0, 1.0, 1.0])
        query = sparse([10, 20, 35, 45], [1.0, 1.0, 1.0, 1.0])
        direct_only = shifted_dot_product(query, reference, 0)
        with_shift = shifted_dot_product(query, reference, 5)
        assert direct_only == pytest.approx(0.5)
        assert with_shift == pytest.approx(1.0)

    def test_negative_shift(self):
        reference = sparse([15], [1.0])
        query = sparse([10], [1.0])
        assert shifted_dot_product(query, reference, -5) == pytest.approx(1.0)

    def test_out_of_range_shift_ignored(self):
        reference = sparse([98], [1.0])
        query = sparse([1], [1.0])
        assert shifted_dot_product(query, reference, 50) == pytest.approx(0.0)

    def test_empty_inputs(self):
        empty = sparse([], [])
        assert shifted_dot_product(empty, sparse([1], [1.0]), 0) == 0.0
        assert shifted_dot_product(sparse([1], [1.0]), empty, 0) == 0.0


@pytest.fixture(scope="module")
def library_and_queries():
    from repro.ms.decoy import append_decoys, decoy_factory
    from repro.ms.synthetic import WorkloadConfig, build_workload

    workload = build_workload(
        WorkloadConfig(name="bl", num_references=120, num_queries=30, seed=77)
    )
    library = append_decoys(
        workload.references, decoy_factory(workload.config.seed), seed=5
    )
    return workload, library


class TestSearchers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda lib: AnnSoloSearcher(lib),
            lambda lib: HyperOmsSearcher(lib, dim=1024),
            lambda lib: BruteForceSearcher(lib),
        ],
        ids=["annsolo", "hyperoms", "bruteforce"],
    )
    def test_searcher_finds_unmodified_truth(self, library_and_queries, factory):
        workload, library = library_and_queries
        searcher = factory(library)
        correct = 0
        total = 0
        for query in workload.queries:
            truth = workload.truth[query.identifier]
            if truth is None or (
                query.peptide is not None and query.peptide.is_modified
            ):
                continue
            total += 1
            psm = searcher.search_one(query)
            if psm is not None and psm.peptide_key == truth:
                correct += 1
        assert total > 0
        assert correct >= 0.85 * total

    def test_annsolo_beats_bruteforce_on_modified(self, library_and_queries):
        """The SDP recovers shifted fragments a plain cosine cannot."""
        workload, library = library_and_queries
        annsolo = AnnSoloSearcher(library, mode="open")
        brute = BruteForceSearcher(library, mode="open")
        annsolo_correct = 0
        brute_correct = 0
        modified = [
            q
            for q in workload.queries
            if q.peptide is not None and q.peptide.is_modified
        ]
        assert modified
        for query in modified:
            truth = workload.truth[query.identifier]
            psm_a = annsolo.search_one(query)
            psm_b = brute.search_one(query)
            annsolo_correct += bool(psm_a and psm_a.peptide_key == truth)
            brute_correct += bool(psm_b and psm_b.peptide_key == truth)
        assert annsolo_correct >= brute_correct

    def test_cascade_mode_annotated(self, library_and_queries):
        workload, library = library_and_queries
        searcher = AnnSoloSearcher(library, mode="cascade")
        result = searcher.search(workload.queries)
        assert {psm.mode for psm in result.psms} <= {"standard", "open"}
        assert result.backend_name == "ann-solo"

    def test_hyperoms_deterministic(self, library_and_queries):
        workload, library = library_and_queries
        a = HyperOmsSearcher(library, dim=512, seed=3).search(workload.queries)
        b = HyperOmsSearcher(library, dim=512, seed=3).search(workload.queries)
        assert a.score_by_query() == b.score_by_query()

    def test_hyperoms_seed_changes_scores(self, library_and_queries):
        workload, library = library_and_queries
        a = HyperOmsSearcher(library, dim=512, seed=3).search(workload.queries)
        b = HyperOmsSearcher(library, dim=512, seed=4).search(workload.queries)
        assert a.score_by_query() != b.score_by_query()

    def test_empty_library_raises(self):
        with pytest.raises(ValueError):
            BruteForceSearcher([])

    def test_invalid_mode_raises(self, library_and_queries):
        _, library = library_and_queries
        with pytest.raises(ValueError):
            BruteForceSearcher(library, mode="wide")
