"""Tests for the segmented out-of-core library store (repro.store).

The invariant everything here leans on: a per-row hypervector is a pure
function of (spectrum, config), and segments are contiguous global row
ranges in ingestion order — so a store built by streaming, appending, or
merging must search bit-identically to one monolithic
:class:`LibraryIndex` over the same spectra.
"""

from __future__ import annotations

import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.ann import AnnConfig
from repro.engine import EngineConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index.library import LibraryIndex
from repro.oms.candidates import WindowConfig
from repro.oms.search import HDOmsSearcher, HDSearchConfig
from repro.store import (
    MANIFEST_NAME,
    SegmentIntegrityError,
    SegmentedSearcher,
    SegmentedStore,
    StoreCompatibilityError,
    StoreManifest,
    append_store,
    build_store,
    merge_store,
    open_search_source,
)


@pytest.fixture(scope="module")
def space_config(binning):
    return HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=17)


@pytest.fixture(scope="module")
def references(small_workload):
    return small_workload.references


@pytest.fixture(scope="module")
def queries(small_workload):
    return small_workload.queries[:10]


@pytest.fixture(scope="module")
def monolithic(references, space_config, binning):
    return LibraryIndex.build(
        references, space_config=space_config, binning=binning
    )


def _psm_key(psm):
    return None if psm is None else (psm.reference_id, psm.score, psm.is_decoy)


def _search_pairs(searcher_a, searcher_b, queries):
    result_a = searcher_a.search(queries)
    result_b = searcher_b.search(queries)
    assert [_psm_key(p) for p in result_a.psms] == [
        _psm_key(p) for p in result_b.psms
    ]
    assert result_a.num_unmatched == result_b.num_unmatched


class TestManifest:
    def test_roundtrip(self, tmp_path, references, space_config, binning):
        store = build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=25,
        )
        manifest = StoreManifest.load(tmp_path / "store")
        assert manifest.num_references == store.num_references
        assert len(manifest.segments) == store.num_segments
        for meta in manifest.segments:
            assert meta.mass_min <= meta.mass_max
        assert manifest.configs()[0] == space_config
        store.close()

    def test_manifest_is_json(self, tmp_path, references, space_config, binning):
        build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
        ).close()
        payload = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        assert payload["format_version"] == 2
        assert payload["index_format_version"] == 2
        assert payload["segments"]

    def test_load_rejects_non_store(self, tmp_path):
        with pytest.raises(StoreCompatibilityError, match="not a segmented"):
            StoreManifest.load(tmp_path)

    def test_provenance_covers_segments(
        self, tmp_path, references, space_config, binning
    ):
        store = build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=25,
        )
        before = store.provenance()
        store.close()
        append_store(tmp_path / "store", references[:5]).close()
        after = SegmentedStore.open(tmp_path / "store").provenance()
        assert before != after  # fingerprints must roll over on append


class TestBuildParity:
    def test_rows_bit_identical(
        self, tmp_path, references, space_config, binning, monolithic
    ):
        store = build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=13,
        )
        merged = store.to_index()
        np.testing.assert_array_equal(merged.packed, monolithic.packed)
        np.testing.assert_array_equal(
            merged.neutral_masses, monolithic.neutral_masses
        )
        assert list(merged.identifiers) == list(monolithic.identifiers)
        store.close()

    def test_search_parity_serial_and_threaded(
        self, tmp_path, references, queries, space_config, binning, monolithic
    ):
        store = build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=13,
        )
        baseline = HDOmsSearcher.from_index(monolithic)
        for workers in (0, 3):
            with SegmentedSearcher(
                store, engine=EngineConfig(num_workers=workers)
            ) as searcher:
                _search_pairs(searcher, baseline, queries)
        store.close()

    def test_search_allocates_no_shared_memory(
        self, tmp_path, references, queries, space_config, binning, monolithic
    ):
        """Store search never leaves the process, so it maps no arena."""
        shm = Path("/dev/shm")
        if not shm.is_dir():
            pytest.skip("no /dev/shm on this platform")
        store = build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=13,
        )
        before = set(shm.iterdir())
        with SegmentedSearcher(
            store, engine=EngineConfig(num_workers=2, executor="process")
        ) as searcher:
            _search_pairs(searcher, HDOmsSearcher.from_index(monolithic), queries)
            assert searcher.segments_opened > 1
            assert searcher.arena_nbytes == 0
            assert set(shm.iterdir()) <= before
        store.close()

    def test_empty_store_rejected(self, tmp_path, space_config, binning):
        with pytest.raises(ValueError, match="survived preprocessing"):
            build_store(
                [],
                tmp_path / "store",
                space_config=space_config,
                binning=binning,
            )

    def test_existing_store_rejected(
        self, tmp_path, references, space_config, binning
    ):
        build_store(
            references[:5],
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
        ).close()
        with pytest.raises(FileExistsError):
            build_store(
                references[:5],
                tmp_path / "store",
                space_config=space_config,
                binning=binning,
            )


class TestAppendAndMerge:
    def test_append_bit_identical_to_rebuild(
        self, tmp_path, references, queries, space_config, binning, monolithic
    ):
        root = tmp_path / "store"
        build_store(
            references[:20],
            root,
            space_config=space_config,
            binning=binning,
            segment_rows=9,
        ).close()
        store = append_store(root, references[20:], segment_rows=9)
        np.testing.assert_array_equal(
            store.to_index().packed, monolithic.packed
        )
        with SegmentedSearcher(store) as searcher:
            _search_pairs(
                searcher, HDOmsSearcher.from_index(monolithic), queries
            )
        store.close()

    def test_append_rejects_provenance_mismatch(
        self, tmp_path, references, space_config, binning
    ):
        root = tmp_path / "store"
        build_store(
            references[:10], root, space_config=space_config, binning=binning
        ).close()
        with pytest.raises(StoreCompatibilityError, match="provenance mismatch"):
            append_store(
                root,
                references[10:],
                space_config=HDSpaceConfig(
                    dim=128, num_bins=binning.num_bins, seed=17
                ),
            )

    def test_merge_compacts_and_keeps_results(
        self, tmp_path, references, queries, space_config, binning, monolithic
    ):
        root = tmp_path / "store"
        build_store(
            references,
            root,
            space_config=space_config,
            binning=binning,
            segment_rows=9,
        ).close()
        segments_before = len(StoreManifest.load(root).segments)
        files_before = set(p.name for p in (root / "segments").iterdir())
        store = merge_store(root, target_rows=30)
        manifest = StoreManifest.load(root)
        assert len(manifest.segments) < segments_before
        assert max(meta.tier for meta in manifest.segments) == 1
        # compaction replaces files: stale segments must be unlinked
        files_after = set(p.name for p in (root / "segments").iterdir())
        assert files_after == {
            Path(meta.file).name for meta in manifest.segments
        }
        assert files_after != files_before
        with SegmentedSearcher(store) as searcher:
            _search_pairs(
                searcher, HDOmsSearcher.from_index(monolithic), queries
            )
        store.close()

    def test_full_merge_single_segment(
        self, tmp_path, references, space_config, binning, monolithic
    ):
        root = tmp_path / "store"
        build_store(
            references,
            root,
            space_config=space_config,
            binning=binning,
            segment_rows=9,
        ).close()
        store = merge_store(root)
        assert store.num_segments == 1
        np.testing.assert_array_equal(
            store.to_index().packed, monolithic.packed
        )
        store.close()


class TestLazySegmentOpening:
    @pytest.fixture()
    def sorted_store(self, tmp_path, references, space_config, binning):
        ordered = sorted(references, key=lambda s: s.neutral_mass)
        store = build_store(
            ordered,
            tmp_path / "sorted-store",
            space_config=space_config,
            binning=binning,
            segment_rows=15,
        )
        yield store
        store.close()

    def test_narrow_window_opens_subset(self, sorted_store, references):
        assert sorted_store.num_segments >= 3
        lightest = min(references, key=lambda s: s.neutral_mass)
        windows = WindowConfig(standard_tolerance_da=0.1)
        with SegmentedSearcher(
            sorted_store,
            windows=windows,
            config=HDSearchConfig(mode="standard"),
        ) as searcher:
            searcher.search([lightest])
            assert searcher.segments_opened == 1
        assert sum(1 for c in sorted_store.open_counts if c) == 1

    def test_wide_window_opens_all(self, sorted_store, references):
        with SegmentedSearcher(
            sorted_store, windows=WindowConfig(open_window_da=10_000.0)
        ) as searcher:
            searcher.search(references[:2])
            assert searcher.segments_opened == sorted_store.num_segments

    def test_skipping_never_changes_results(
        self, sorted_store, queries, monolithic, references, space_config, binning
    ):
        # Same spectra, different row order: rebuild the baseline in the
        # sorted order so PSM positions agree.
        ordered = sorted(references, key=lambda s: s.neutral_mass)
        baseline = HDOmsSearcher.from_index(
            LibraryIndex.build(
                ordered, space_config=space_config, binning=binning
            ),
            config=HDSearchConfig(mode="standard"),
        )
        with SegmentedSearcher(
            sorted_store, config=HDSearchConfig(mode="standard")
        ) as searcher:
            _search_pairs(searcher, baseline, queries)


    def test_each_segment_scores_only_its_routed_queries(
        self, sorted_store, queries, references, space_config, binning
    ):
        # One mixed-mass standard batch: the core's hull test routes each
        # query to the few segments its window meets, so no segment
        # scores the whole batch — and the answers stay exact.
        from repro.obs.trace import get_tracer

        ordered = sorted(references, key=lambda s: s.neutral_mass)
        baseline = HDOmsSearcher.from_index(
            LibraryIndex.build(ordered, space_config=space_config, binning=binning),
            config=HDSearchConfig(mode="standard"),
        )
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enable()
        tracer.clear()
        try:
            with SegmentedSearcher(
                sorted_store, config=HDSearchConfig(mode="standard")
            ) as searcher:
                got = searcher.search(queries)
            scored = [span.tags["queries"] for span in tracer.records() if span.name == "segment.score"]
        finally:
            if not was_enabled:
                tracer.disable()
        assert scored and max(scored) < len(queries)
        assert got.psms == baseline.search(queries).psms


class TestThreadedCounterStorm:
    def test_storm_counts_exactly(
        self, tmp_path, references, queries, space_config, binning
    ):
        # Twelve threads hammer ONE threaded-mode searcher.  The
        # counters are observability surface (stats/metrics); unlocked
        # ``dict[k] = dict.get(k) + 1`` bumps would silently lose
        # increments under this storm, so the counts must be EXACT,
        # not approximately right.
        import threading

        store = build_store(
            references,
            tmp_path / "storm-store",
            space_config=space_config,
            binning=binning,
            segment_rows=13,
        )
        try:
            # Measure the per-run batch total on a fresh serial searcher.
            with SegmentedSearcher(store) as probe:
                expected = {
                    psm.query_id: _psm_key(psm)
                    for psm in probe.search(queries).psms
                }
                per_run = sum(probe.segment_batches.values())
            assert per_run > 0

            num_threads = 12
            results = [None] * num_threads
            errors = []
            with SegmentedSearcher(
                store, engine=EngineConfig(num_workers=3)
            ) as searcher:
                barrier = threading.Barrier(num_threads)

                def storm(slot):
                    try:
                        barrier.wait()
                        results[slot] = searcher.search(queries)
                    except Exception as error:  # pragma: no cover
                        errors.append(error)

                threads = [
                    threading.Thread(target=storm, args=(slot,))
                    for slot in range(num_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert not errors
                # Every segment materialized exactly once...
                assert searcher.segments_opened == store.num_segments
                batches = searcher.segment_batches
                # ...and every scored batch counted exactly once.
                assert sum(batches.values()) == num_threads * per_run
            assert all(count == 1 for count in store.open_counts)
            for result in results:
                assert result is not None
                assert {
                    psm.query_id: _psm_key(psm) for psm in result.psms
                } == expected
        finally:
            store.close()


class TestCloseTimeout:
    def test_close_returns_while_a_scorer_is_wedged(
        self, tmp_path, references, queries, space_config, binning, monkeypatch
    ):
        """close(timeout) used to be pool.shutdown(wait=True): forever."""
        import threading
        import time

        from repro.oms.kernel import ShardScorer

        parked, release = threading.Event(), threading.Event()
        score_batch = ShardScorer.score_batch

        def wedged(scorer, *batch):
            parked.set()
            release.wait(60.0)
            return score_batch(scorer, *batch)

        monkeypatch.setattr(ShardScorer, "score_batch", wedged)
        store = build_store(
            references[:30],
            tmp_path / "wedged-store",
            space_config=space_config,
            binning=binning,
            segment_rows=10,
        )
        searcher = SegmentedSearcher(store, engine=EngineConfig(num_workers=2))
        assert searcher.executor_kind == "thread"
        outcome = []

        def run():
            try:
                outcome.append(searcher.search(queries))
            except Exception as error:  # a cancelled future lands here
                outcome.append(error)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        try:
            assert parked.wait(10.0)
            started = time.perf_counter()
            searcher.close(timeout=0.2)
            assert time.perf_counter() - started < 5.0
        finally:
            release.set()
            runner.join(30.0)
            store.close()
        assert not runner.is_alive() and len(outcome) == 1


class TestAnnOnStore:
    def test_old_manifest_ann_key_is_ignored_and_parity(
        self, tmp_path, references, queries, monolithic, space_config, binning
    ):
        """Stores of LSH-era builds carry ``"ann"``; nothing reads it."""
        store = build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=20,
        )
        store.close()
        shutil.copytree(tmp_path / "store", tmp_path / "old")
        manifest_path = tmp_path / "old" / "manifest.json"
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert "ann" not in payload
        payload["ann"] = {"num_tables": 8, "bits_per_hash": 16, "seed": 77}
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        # 32 prefix words cover a 512-bit row: every part's pass is
        # exact, so any segmentation equals the exact oracle.
        ann = AnnConfig(candidate_budget=4, ann_threshold=1)
        baseline = HDOmsSearcher.from_index(monolithic)
        for root in (tmp_path / "store", tmp_path / "old"):
            with SegmentedSearcher(root, config=HDSearchConfig(ann=ann)) as searcher:
                assert searcher.backend_name.endswith("+ann")
                _search_pairs(searcher, baseline, queries)
                assert searcher.ann_stats.snapshot()["prefiltered"] > 0
        assert SegmentedStore.open(tmp_path / "old").provenance() == (
            SegmentedStore.open(tmp_path / "store").provenance()
        )


class TestSegmentedSearcherValidation:
    def test_rejects_foreign_engine_kind(
        self, tmp_path, references, space_config, binning
    ):
        store = build_store(
            references[:10],
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
        )
        with pytest.raises(ValueError, match="cannot host engine kind"):
            SegmentedSearcher(store, engine=EngineConfig(kind="sharded"))
        store.close()

    def test_rejects_reference_ber(
        self, tmp_path, references, space_config, binning
    ):
        store = build_store(
            references[:10],
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
        )
        with pytest.raises(ValueError, match="reference_ber"):
            SegmentedSearcher(
                store, config=HDSearchConfig(reference_ber=0.01)
            )
        store.close()


class TestServiceOverStore:
    @pytest.fixture()
    def store_path(self, tmp_path, references, space_config, binning):
        build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=25,
        ).close()
        return tmp_path / "store"

    def test_serves_store_and_hot_reloads_appends(
        self, store_path, references, queries, monolithic
    ):
        from repro.service.server import SearchService

        baseline = SearchService(monolithic)
        service = SearchService(store_path)
        try:
            assert service.engine_name.startswith("segmentedx")
            stats = service.stats()["engine"]
            assert stats["config"]["kind"] == "auto"
            assert [_psm_key(p) for p in service.search_many(queries)] == [
                _psm_key(p) for p in baseline.search_many(queries)
            ]
            fingerprint_before = service._fingerprint
            append_store(store_path, references[:5]).close()
            service.reload()
            # The manifest gained segments: the cache fingerprint must
            # roll over and the engine label must reflect the new count.
            assert service._fingerprint != fingerprint_before
            assert service.healthz()["num_references"] == len(references) + 5
        finally:
            service.close()
            baseline.close()

    def test_explicit_kind_mismatch_rejected(self, store_path):
        from repro.service.server import SearchService, ServiceConfig

        config = ServiceConfig(engine_config=EngineConfig(kind="sharded"))
        with pytest.raises(ValueError, match="SegmentedSearcher cannot host"):
            SearchService(store_path, config=config)


class TestCliStoreVerbs:
    @pytest.fixture()
    def files(self, tmp_path, references, queries):
        from repro.ms import write_mgf, write_msp

        library = tmp_path / "library.msp"
        extra = tmp_path / "extra.msp"
        query_file = tmp_path / "queries.mgf"
        write_msp(references[:40], library)
        write_msp(references[40:], extra)
        write_mgf(queries, query_file)
        return library, extra, query_file

    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_build_append_merge_search_round_trip(self, tmp_path, files):
        library, extra, query_file = files
        store = tmp_path / "store"
        mono = tmp_path / "mono.npz"
        common = ["--dim", "512", "--no-decoys"]
        assert (
            self._run(
                ["index", "build", "--library", str(library), "--output",
                 str(mono), *common]
            )
            == 0
        )
        assert (
            self._run(
                ["index", "build", "--library", str(library), "--output",
                 str(store), "--segment-rows", "15", *common]
            )
            == 0
        )
        out_mono = tmp_path / "mono.tsv"
        out_store = tmp_path / "store.tsv"
        for index, out in ((mono, out_mono), (store, out_store)):
            assert (
                self._run(
                    ["index", "search", "--index", str(index), "--queries",
                     str(query_file), "--output", str(out)]
                )
                == 0
            )
        assert out_store.read_bytes() == out_mono.read_bytes()

        segments_before = len(StoreManifest.load(store).segments)
        assert (
            self._run(
                ["index", "append", "--store", str(store), "--library",
                 str(extra), "--no-decoys", "--segment-rows", "15",
                 "--verify-queries", str(query_file)]
            )
            == 0
        )
        assert len(StoreManifest.load(store).segments) > segments_before
        assert (
            self._run(
                ["index", "merge", "--store", str(store), "--verify-queries",
                 str(query_file)]
            )
            == 0
        )
        assert len(StoreManifest.load(store).segments) == 1

    def test_append_provenance_mismatch_exits_2(self, tmp_path, files):
        library, extra, _ = files
        store = tmp_path / "store"
        assert (
            self._run(
                ["index", "build", "--library", str(library), "--output",
                 str(store), "--segment-rows", "15", "--dim", "512",
                 "--no-decoys"]
            )
            == 0
        )
        # The CLI reads encoding provenance from the manifest itself, so
        # the incompatibility it can hit is a store written by a
        # different format generation; simulate one.
        manifest_path = store / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["format_version"] = 99
        manifest_path.write_text(json.dumps(payload))
        assert (
            self._run(
                ["index", "append", "--store", str(store), "--library",
                 str(extra), "--no-decoys"]
            )
            == 2
        )

    def test_merge_rejects_bad_target_rows(self, tmp_path, files):
        library, _, _ = files
        store = tmp_path / "store"
        self._run(
            ["index", "build", "--library", str(library), "--output",
             str(store), "--segment-rows", "15", "--dim", "512",
             "--no-decoys"]
        )
        assert (
            self._run(
                ["index", "merge", "--store", str(store), "--target-rows",
                 "0"]
            )
            == 2
        )


def _break_segment(root: Path, fault: str, position: int = 0) -> str:
    """Damage one segment file the way ``fault`` says; its name."""
    segments = StoreManifest.load(root).segments
    victim = root / segments[position].file
    if fault == "missing":
        victim.unlink()
    elif fault == "truncated":
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
    else:
        # "swapped": the last segment is the short remainder;
        # "swapped-same-rows": the second has the first's row count, so
        # only its mass range gives it away.
        donor = segments[-1 if fault == "swapped" else 1]
        assert (donor.num_references == segments[position].num_references) == (
            fault == "swapped-same-rows"
        )
        shutil.copyfile(root / donor.file, victim)
    return victim.name


@pytest.mark.parametrize(
    "fault", ["swapped", "swapped-same-rows", "missing", "truncated"]
)
class TestSegmentFileFaults:
    """A segment file that is not what the manifest says never yields a PSM."""

    def test_searcher_raises_the_typed_error(
        self, tmp_path, references, queries, space_config, binning, fault
    ):
        build_store(
            references,
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
            segment_rows=25,
        ).close()
        name = _break_segment(tmp_path / "store", fault)
        with SegmentedSearcher(tmp_path / "store") as searcher:
            with pytest.raises(SegmentIntegrityError, match=name) as excinfo:
                searcher.search(queries)
            assert isinstance(excinfo.value, StoreCompatibilityError)
            # The healthy segments still open.
            assert searcher.store.segment(2).num_references == 10

    def test_cli_reports_one_line_and_exits_2(
        self, tmp_path, references, queries, capsys, fault
    ):
        from repro.cli import main
        from repro.ms import write_mgf, write_msp

        write_msp(references, tmp_path / "library.msp")
        write_mgf(queries, tmp_path / "queries.mgf")
        store, output = tmp_path / "store", tmp_path / "psms.tsv"
        assert main(
            ["index", "build", "--library", str(tmp_path / "library.msp"),
             "--output", str(store), "--segment-rows", "25", "--dim", "512",
             "--no-decoys"]
        ) == 0
        name = _break_segment(store, fault)
        capsys.readouterr()
        assert main(
            ["index", "search", "--index", str(store), "--queries",
             str(tmp_path / "queries.mgf"), "--output", str(output)]
        ) == 2
        captured = capsys.readouterr()
        # Log records may precede it; the report itself is one line.
        report = captured.err.splitlines()[-1]
        assert report.startswith("index search: segment ") and name in report
        assert "Traceback" not in captured.err
        assert "accepted" not in captured.out and not output.exists()


    def test_merge_refuses_and_leaves_the_store_untouched(
        self, tmp_path, references, capsys, fault
    ):
        from repro.cli import main
        from repro.ms import write_msp

        write_msp(references, tmp_path / "library.msp")
        store = tmp_path / "store"
        assert main(
            ["index", "build", "--library", str(tmp_path / "library.msp"),
             "--output", str(store), "--segment-rows", "13", "--dim", "512",
             "--no-decoys"]
        ) == 0
        # 13+13 | 13+13 | 8 rows: the fault sits in the second group,
        # met when the first is already rewritten.
        name = _break_segment(store, fault, position=2)

        def snapshot():
            return {
                path.relative_to(store): path.read_bytes()
                for path in sorted(store.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        capsys.readouterr()
        assert main(
            ["index", "merge", "--store", str(store), "--target-rows", "26"]
        ) == 2
        captured = capsys.readouterr()
        report = captured.err.splitlines()[-1]
        assert report.startswith("index merge: segment ") and name in report
        assert "Traceback" not in captured.err
        assert "compacted" not in captured.out
        assert snapshot() == before


def _damage_manifest(root: Path, damage: str) -> None:
    """Break ``root``'s manifest the way ``damage`` says."""
    path = root / MANIFEST_NAME
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[:100])
    elif damage == "bit-flipped":
        path.write_bytes(bytes([data[0] ^ 0x01]) + data[1:])  # "{" becomes "z"
    else:
        payload = json.loads(data)
        del payload["space"]
        path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("damage", ["truncated", "bit-flipped", "missing-key"])
class TestManifestFaults:
    """A damaged ``manifest.json`` is a typed error naming it, never a traceback."""

    def test_open_raises_the_typed_error(
        self, tmp_path, references, space_config, binning, damage
    ):
        build_store(
            references, tmp_path / "store", space_config=space_config, binning=binning
        ).close()
        _damage_manifest(tmp_path / "store", damage)
        with pytest.raises(StoreCompatibilityError, match=MANIFEST_NAME):
            SegmentedStore.open(tmp_path / "store")

    def test_cli_reports_one_line_and_exits_2(
        self, tmp_path, references, queries, capsys, damage
    ):
        from repro.cli import main
        from repro.ms import write_mgf, write_msp

        write_msp(references, tmp_path / "library.msp")
        write_mgf(queries, tmp_path / "queries.mgf")
        store, output = tmp_path / "store", tmp_path / "psms.tsv"
        assert main(
            ["index", "build", "--library", str(tmp_path / "library.msp"),
             "--output", str(store), "--segment-rows", "25", "--dim", "512",
             "--no-decoys"]
        ) == 0
        _damage_manifest(store, damage)
        capsys.readouterr()
        assert main(
            ["index", "search", "--index", str(store), "--queries",
             str(tmp_path / "queries.mgf"), "--output", str(output)]
        ) == 2
        captured = capsys.readouterr()
        report = captured.err.splitlines()[-1]
        assert report.startswith("index search: ") and MANIFEST_NAME in report
        assert "Traceback" not in captured.err
        assert not output.exists()


class TestOpenSearchSource:
    def test_dispatch(self, tmp_path, references, space_config, binning):
        build_store(
            references[:10],
            tmp_path / "store",
            space_config=space_config,
            binning=binning,
        ).close()
        index = LibraryIndex.build(
            references[:10], space_config=space_config, binning=binning
        )
        index.save(tmp_path / "mono.npz")
        opened_store = open_search_source(tmp_path / "store")
        assert isinstance(opened_store, SegmentedStore)
        opened_store.close()
        opened_manifest = open_search_source(tmp_path / "store" / MANIFEST_NAME)
        assert isinstance(opened_manifest, SegmentedStore)
        opened_manifest.close()
        assert isinstance(
            open_search_source(tmp_path / "mono.npz"), LibraryIndex
        )


def _write_version_1(path: Path) -> None:
    """Rewrite the index archive or store at ``path`` as format version 1."""
    if path.is_dir():
        manifest = path / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["format_version"] = 1
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        return
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["format_version"] = np.array(1, dtype=np.int64)
    np.savez(path, **members)


@pytest.mark.parametrize("verb", ["index search", "serve", "profile"])
@pytest.mark.parametrize("artifact", ["npz", "store"])
class TestOldFormatRefusal:
    """Version 1 encoded with another ID codebook: never searched, always rebuilt."""

    def test_cli_says_rebuild_in_one_line_and_exits_2(
        self, tmp_path, references, queries, space_config, binning, monolithic, capsys,
        verb, artifact,
    ):
        from repro.cli import main
        from repro.ms import write_mgf

        write_mgf(queries, tmp_path / "queries.mgf")
        if artifact == "npz":
            path = monolithic.save(tmp_path / "old.npz")
        else:
            path = tmp_path / "store"
            build_store(
                references, path, space_config=space_config, binning=binning, segment_rows=25
            ).close()
        _write_version_1(path)
        output = tmp_path / "out"
        argv = {
            "index search": ["index", "search", "--index", str(path), "--queries",
                             str(tmp_path / "queries.mgf"), "--output", str(output)],
            "serve": ["serve", "--index", str(path), "--port", "0"],
            "profile": ["profile", "--index", str(path), "--queries",
                        str(tmp_path / "queries.mgf"), "--output", str(output)],
        }[verb]
        capsys.readouterr()
        exit_codes = []
        # `serve` on an accepted index would serve forever: run the verb
        # where that fails the test instead of hanging it.
        runner = threading.Thread(target=lambda: exit_codes.append(main(argv)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), f"{verb} accepted a version-1 {artifact}"
        assert exit_codes == [2]
        captured = capsys.readouterr()
        report = captured.err.splitlines()[-1]
        assert report.startswith(f"{verb}: ") and "rebuild the index" in report
        assert "Traceback" not in captured.err
        assert "accepted" not in captured.out and "listening" not in captured.out
        assert not output.exists()
