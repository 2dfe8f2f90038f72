"""Tests for the online search service (repro.service).

Covers the satellite checklist: concurrent clients get PSMs
bit-identical to a direct HDOmsSearcher run, repeated spectra hit the
result cache, requests queued behind a busy engine coalesce into one
batch, and ``/reload`` swaps the index without dropping queued requests.
"""

import dataclasses
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.index import LibraryIndex, ReferenceRecord
from repro.hdc.spaces import HDSpaceConfig
from repro.ms.spectrum import Spectrum
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.oms.psm import PSM, SearchResult
from repro.oms.search import HDOmsSearcher, HDSearchConfig
from repro.service import (
    MISSING,
    IndexRegistry,
    MicroBatchScheduler,
    ProtocolError,
    ResultCache,
    SearchClient,
    SearchService,
    ServiceConfig,
    ServiceError,
    ServiceMetrics,
    config_fingerprint,
    spectrum_digest,
    spectrum_from_payload,
    spectrum_to_payload,
    start_server,
)
from repro.service.protocol import (
    decode_score_reply,
    decode_score_request,
    encode_score_reply,
    encode_score_request,
)
from repro.service.scheduler import MAX_BATCH


@pytest.fixture(scope="module")
def workload(binning):
    return build_workload(
        WorkloadConfig(
            name="service-test", num_references=150, num_queries=30, seed=7
        )
    )


@pytest.fixture(scope="module")
def index(workload, binning):
    return LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(
            dim=512, num_bins=binning.num_bins, num_levels=8, seed=13
        ),
        binning=binning,
        source="service-test",
    )


@pytest.fixture(scope="module")
def index_path(index, tmp_path_factory):
    return index.save(tmp_path_factory.mktemp("service") / "library.npz")


@pytest.fixture(scope="module")
def baseline(index, workload):
    """query_id -> PSM (or absent) from a direct single-process run."""
    result = HDOmsSearcher.from_index(index).search(workload.queries)
    return {psm.query_id: psm for psm in result.psms}


def make_service(index_path, **overrides):
    return SearchService(index_path, ServiceConfig(**overrides))


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_spectrum_payload_roundtrip(self, workload):
        original = workload.queries[0]
        restored = spectrum_from_payload(spectrum_to_payload(original))
        assert restored.identifier == original.identifier
        assert restored.precursor_mz == original.precursor_mz
        assert restored.precursor_charge == original.precursor_charge
        assert np.array_equal(restored.mz, original.mz)
        assert np.array_equal(restored.intensity, original.intensity)
        assert spectrum_digest(restored) == spectrum_digest(original)

    def test_digest_ignores_identifier(self, workload):
        import dataclasses

        spectrum = workload.queries[0]
        renamed = dataclasses.replace(spectrum, identifier="other-name")
        assert spectrum_digest(renamed) == spectrum_digest(spectrum)

    def test_digest_sees_peak_changes(self, workload):
        spectrum = workload.queries[0]
        perturbed = spectrum.copy_with_peaks(
            spectrum.mz, spectrum.intensity * 2.0
        )
        assert spectrum_digest(perturbed) != spectrum_digest(spectrum)

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"precursor_mz": 500.0},
            {
                "precursor_mz": -1.0,
                "precursor_charge": 2,
                "mz": [1.0],
                "intensity": [1.0],
            },
        ],
    )
    def test_bad_payload_raises(self, payload):
        with pytest.raises(ProtocolError):
            spectrum_from_payload(payload)

    def test_fingerprint_separates_configs(self, index):
        from repro.ann import AnnConfig
        from repro.oms.candidates import WindowConfig

        base = config_fingerprint(
            index.provenance(), WindowConfig(), HDSearchConfig()
        )
        other_mode = config_fingerprint(
            index.provenance(), WindowConfig(), HDSearchConfig(mode="standard")
        )
        other_window = config_fingerprint(
            index.provenance(), WindowConfig(open_window_da=50.0), HDSearchConfig()
        )
        other_ann = config_fingerprint(
            index.provenance(), WindowConfig(), HDSearchConfig(ann=AnnConfig())
        )
        assert len({base, other_mode, other_window, other_ann}) == 4


_RECORD = ReferenceRecord("r7", "PEPTIDEK/2", False, 1001.5, 2)


def _score_reply(**changes):
    """A two-query ``/score`` reply as a worker sends it: one winner, one miss."""
    reply = {
        "counts": [3, 0],
        "scores": [412.0, -np.inf],
        "masses": [1001.5, np.inf],
        "positions": [7, -1],
        "records": [_RECORD, None],
    }
    return encode_score_reply(**{**reply, **changes})


class TestScoreReply:
    """The coordinator checks each worker's ``/score`` reply before merging it."""

    def test_reply_parses_into_typed_columns_and_records(self):
        counts, scores, masses, positions, records = decode_score_reply(_score_reply(), 2)
        assert counts.dtype == np.int64 and positions.dtype == np.int64
        assert scores.dtype == np.float64 and masses.dtype == np.float64
        assert positions.tolist() == [7, -1]
        assert records == [_RECORD, None]

    def test_records_travel_as_one_json_array_after_the_columns(self):
        tail = b'[["r7", "PEPTIDEK/2", false, 1001.5, 2], null]'
        assert _score_reply().endswith(tail)
        assert len(_score_reply()) == 16 + 4 * 2 * 8 + len(tail)

    @pytest.mark.parametrize(
        "damage",
        ["missing-column", "short-column", "record-without-winner",
         "winner-without-record", "unknown-record-field", "other-query-count",
         "truncated-head", "bad-magic", "bad-version", "trailing-bytes", "json-reply",
         "records-not-an-array"],
    )
    def test_malformed_reply_raises(self, damage):
        reply, num_queries = _score_reply(), 2
        tail = b'[["r7", "PEPTIDEK/2", false, 1001.5, 2], null]'
        if damage == "missing-column":
            reply = _score_reply(positions=[])
        elif damage == "short-column":
            reply = _score_reply(scores=[412.0])
        elif damage == "record-without-winner":
            reply = _score_reply(records=[_RECORD, _RECORD])
        elif damage == "winner-without-record":
            reply = _score_reply(records=[None, None])
        elif damage == "unknown-record-field":
            reply = reply.replace(tail, b'[["r7", "PEPTIDEK/2", false, 1001.5, 2, []], null]')
        elif damage == "other-query-count":
            num_queries = 3
        elif damage == "truncated-head":
            reply = reply[:15]
        elif damage == "bad-magic":
            reply = b"JSON" + reply[4:]
        elif damage == "bad-version":
            reply = reply[:4] + (2).to_bytes(4, "little") + reply[8:]
        elif damage == "trailing-bytes":
            reply += b"\0"
        elif damage == "json-reply":  # the codec before binary frames
            reply = b'{"counts": [3, 0], "positions": [7, -1], "records": []}'
        else:
            reply = reply.replace(tail, b'{"r7": null}')
        with pytest.raises(ProtocolError):
            decode_score_reply(reply, num_queries)


class TestScoreCodec:
    """Both ``/score`` frames round-trip exactly, at any width and query count."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 33]),
        dim=st.sampled_from([8, 13, 8192]),
        half_width=st.floats(0.0, 1e6),
        data=st.data(),
    )
    def test_request_and_reply_round_trip(self, n, dim, half_width, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        packed = rng.integers(0, 256, (n, (dim + 7) // 8), dtype=np.uint8)
        masses = rng.uniform(100.0, 5000.0, n)
        charges = rng.integers(1, 6, n)
        body = encode_score_request(packed, dim, masses, charges, half_width)
        got = decode_score_request(body, dim)
        assert np.array_equal(got[0], packed) and got[0].shape == packed.shape
        assert got[1].tolist() == masses.tolist() and got[2].tolist() == charges.tolist()
        assert got[3] == half_width
        found = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        records = [
            ReferenceRecord(f"q{i}", data.draw(st.none() | st.text()), data.draw(st.booleans()),
                            data.draw(st.floats(allow_nan=False)), data.draw(st.integers(1, 9)))
            if hit else None
            for i, hit in enumerate(found)
        ]
        # A miss is the empty-window row (0, -inf, +inf, -1).
        columns = (
            np.array([rng.integers(1, 1000) if hit else 0 for hit in found], np.int64),
            np.array([rng.normal() if hit else -np.inf for hit in found]),
            np.array([rng.uniform(0, 1e4) if hit else np.inf for hit in found]),
            np.array([rng.integers(0, 10**9) if hit else -1 for hit in found], np.int64),
        )
        decoded = decode_score_reply(encode_score_reply(*columns, records), n)
        for column, want in zip(decoded[:4], columns):
            assert column.dtype == want.dtype and column.tolist() == want.tolist()
        assert decoded[4] == records


# ----------------------------------------------------------------------
# PSM / SearchResult serialization (satellite)
# ----------------------------------------------------------------------


class TestPsmSerialization:
    def test_psm_roundtrip(self):
        psm = PSM(
            query_id="q1",
            reference_id="r9",
            peptide_key="PEPTIDE/2",
            score=431.0,
            is_decoy=False,
            precursor_mass_difference=79.9663,
            mode="open",
            q_value=0.004,
        )
        assert PSM.from_dict(psm.to_dict()) == psm

    def test_psm_roundtrip_none_fields(self):
        psm = PSM(
            query_id="q2",
            reference_id="DECOY_r1",
            peptide_key=None,
            score=-12.0,
            is_decoy=True,
            precursor_mass_difference=-0.01,
        )
        restored = PSM.from_dict(psm.to_dict())
        assert restored == psm
        assert restored.q_value is None

    def test_psm_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            PSM.from_dict({"query_id": "q"})

    def test_search_result_roundtrip(self, index, workload):
        result = HDOmsSearcher.from_index(index).search(workload.queries[:8])
        restored = SearchResult.from_dict(result.to_dict())
        assert restored.psms == result.psms
        assert restored.num_queries == result.num_queries
        assert restored.num_unmatched == result.num_unmatched
        assert restored.backend_name == result.backend_name

    def test_to_dict_is_json_safe(self, index, workload):
        import json

        result = HDOmsSearcher.from_index(index).search(workload.queries[:8])
        parsed = json.loads(json.dumps(result.to_dict()))
        assert SearchResult.from_dict(parsed).psms == result.psms


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self):
        events = []
        cache = ResultCache(capacity=4, observer=events.append)
        assert cache.get("a") is MISSING
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert events == ["miss", "hit"]

    def test_stores_none_distinct_from_missing(self):
        cache = ResultCache(capacity=4)
        cache.put("unmatched", None)
        assert cache.get("unmatched") is None
        assert cache.get("absent") is MISSING

    def test_lru_eviction_order(self):
        events = []
        cache = ResultCache(capacity=2, observer=events.append)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert events.count("eviction") == 1

    def test_capacity_zero_disables_storage(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is MISSING
        assert len(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_clear_keeps_stats(self):
        # The counters live in the route's metric families, which a
        # clear (a reload) does not touch.
        route = ServiceMetrics().for_route("r")
        cache = ResultCache(capacity=4, observer=route.cache_event)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.get("a") is MISSING
        assert route.stats()["cache"]["hits"] == 1


# ----------------------------------------------------------------------
# micro-batch scheduler
# ----------------------------------------------------------------------


class RecordingRunner:
    """Echo runner that records every batch it executes."""

    def __init__(self):
        self.batches = []

    def __call__(self, items):
        self.batches.append(list(items))
        return [f"done-{item}" for item in items]


def on_thread(call):
    """Run ``call()`` on a thread of its own; its outcome as a Future.

    ``run_many`` blocks its caller (who may lead the batch), so every
    concurrent caller in these tests is a thread of its own.
    """
    future = Future()

    def run():
        try:
            future.set_result(call())
        except BaseException as error:  # noqa: BLE001 - handed to the test
            future.set_exception(error)

    threading.Thread(target=run, daemon=True).start()
    return future


def submit(scheduler, item):
    """``scheduler.run_many([item])[0]`` on a thread of its own, as a Future."""
    return on_thread(lambda: scheduler.run_many([item])[0])


def wait_queued(scheduler, depth):
    """Block until ``queue_depth`` reaches ``depth``."""
    deadline = time.monotonic() + 10
    while scheduler.queue_depth < depth:
        assert time.monotonic() < deadline, "submission never queued"
        time.sleep(0.001)


def submit_queued(scheduler, items):
    """:func:`submit` each item once the one before it is queued (arrival order).

    For a parked runner only: nothing leaves the queue, so its depth
    grows by one per submission.
    """
    futures = []
    for item in items:
        depth = scheduler.queue_depth
        futures.append(submit(scheduler, item))
        wait_queued(scheduler, depth + 1)
    return futures


class ParkedRunner(RecordingRunner):
    """Echo runner whose first call blocks until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, items):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10)
        return super().__call__(items)


class TestScheduler:
    def test_full_batch_flushes_without_waiting(self):
        runner = RecordingRunner()
        scheduler = MicroBatchScheduler(runner)
        try:
            results = scheduler.run_many(list(range(MAX_BATCH)))
            assert results == [f"done-{i}" for i in range(MAX_BATCH)]
            assert runner.batches == [list(range(MAX_BATCH))]
        finally:
            scheduler.close()

    def test_oversize_burst_splits_into_max_batches(self):
        runner = RecordingRunner()
        scheduler = MicroBatchScheduler(runner)
        try:
            items = list(range(2 * MAX_BATCH + 3))
            assert scheduler.run_many(items) == [f"done-{i}" for i in items]
            assert [len(batch) for batch in runner.batches] == [MAX_BATCH, MAX_BATCH, 3]
        finally:
            scheduler.close()

    def test_close_drains_queue(self):
        runner = ParkedRunner()
        scheduler = MicroBatchScheduler(runner)
        futures = submit_queued(scheduler, range(5))
        assert runner.entered.is_set()
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive(), "close() returned with requests still queued"
        runner.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        # Everything queued ran before close() returned.
        assert runner.batches == [[0], [1, 2, 3, 4]]
        assert scheduler.queue_depth == 0
        assert [f.result(timeout=5) for f in futures] == [f"done-{i}" for i in range(5)]
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.run_many(["late"])

    def test_runner_exception_fails_batch_not_scheduler(self):
        calls = {"n": 0}

        def flaky(items):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return list(items)

        scheduler = MicroBatchScheduler(flaky)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                scheduler.run_many(["x"])
            assert scheduler.run_many(["y"]) == ["y"]
        finally:
            scheduler.close()

    def test_runner_exception_fails_only_its_batch(self):
        runner = ParkedRunner()

        def runner_failing_on_bad(items):
            if "bad" in items:
                raise RuntimeError("boom")
            return runner(items)

        scheduler = MicroBatchScheduler(runner_failing_on_bad)
        try:
            first = submit(scheduler, "first")
            assert runner.entered.wait(timeout=5)
            # A submission split by the cut fails with its first batch:
            # its tail entry must not run, nor make it the next leader.
            split = ["bad"] + [f"x{i}" for i in range(MAX_BATCH)]
            failed = on_thread(lambda: scheduler.run_many(split))
            wait_queued(scheduler, 1 + len(split))
            (tail,) = submit_queued(scheduler, ["tail"])
            runner.release.set()
            assert first.result(timeout=5) == "done-first"
            with pytest.raises(RuntimeError, match="boom"):
                failed.result(timeout=5)
            assert tail.result(timeout=5) == "done-tail"
            assert runner.batches == [["first"], ["tail"]]
        finally:
            runner.release.set()
            scheduler.close()


class TestWorkConservingScheduler:
    """Proven without sleeping: events gate the runner, not the clock."""

    def test_lone_submit_on_idle_scheduler_runs_immediately(self):
        runner = RecordingRunner()
        observed = []
        scheduler = MicroBatchScheduler(runner, observer=observed.append)
        try:
            assert scheduler.run_many(["solo"]) == ["done-solo"]
            assert runner.batches == [["solo"]]
            assert [len(waits) for waits in observed] == [1]
        finally:
            scheduler.close()

    def test_lone_request_runs_on_the_callers_thread(self):
        threads = []

        def runner(items):
            threads.append(threading.get_ident())
            return list(items)

        scheduler = MicroBatchScheduler(runner)
        try:
            assert scheduler.run_many(["solo"]) == ["solo"]
            assert submit(scheduler, "other").result(timeout=5) == "other"
            assert threads[0] == threading.get_ident()
            assert threads[1] != threading.get_ident()
        finally:
            scheduler.close()

    @pytest.mark.parametrize("later", [5, 11, 40])
    def test_batches_form_from_back_pressure(self, later):
        runner = ParkedRunner()
        scheduler = MicroBatchScheduler(runner)
        try:
            first = submit(scheduler, "first")
            assert runner.entered.wait(timeout=5)  # runner busy from here on
            futures = submit_queued(scheduler, range(later))
            runner.release.set()
            assert first.result(timeout=5) == "done-first"
            for future in futures:
                future.result(timeout=5)
            # Everything that queued behind the busy runner left as one
            # batch, capped at MAX_BATCH; only the overflow trails it
            # (40 queued leave as 32 + 8).
            assert runner.batches == [["first"]] + [
                list(range(start, min(start + MAX_BATCH, later)))
                for start in range(0, later, MAX_BATCH)
            ]
        finally:
            runner.release.set()
            scheduler.close()


class TestNoSchedulerThread:
    def test_service_starts_no_thread(self, index_path):
        before = set(threading.enumerate())
        service = make_service(index_path)
        try:
            assert set(threading.enumerate()) <= before
        finally:
            service.close()

    def test_two_route_registry_starts_no_thread(self, index_path):
        before = set(threading.enumerate())
        registry = IndexRegistry({"alpha": index_path, "beta": index_path})
        try:
            assert set(threading.enumerate()) <= before
        finally:
            registry.close()


# ----------------------------------------------------------------------
# SearchService (no HTTP)
# ----------------------------------------------------------------------


class TestSearchService:
    def test_results_identical_to_direct_searcher(
        self, index_path, workload, baseline
    ):
        with make_service(index_path) as service:
            for query in workload.queries:
                assert service.search_one(query) == baseline.get(
                    query.identifier
                )

    def test_sharded_engine_identical(self, index_path, workload, baseline):
        with make_service(
            index_path, engine_config=EngineConfig(kind="sharded", num_shards=2)
        ) as service:
            for query in workload.queries:
                assert service.search_one(query) == baseline.get(
                    query.identifier
                )

    def test_concurrent_clients_identical(
        self, index_path, workload, baseline
    ):
        with make_service(index_path) as service:
            results = {}
            errors = []

            def client(shard):
                try:
                    for query in workload.queries[shard::8]:
                        results[query.identifier] = service.search_one(query)
                except Exception as error:  # pragma: no cover - fail loudly
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(shard,))
                for shard in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(results) == len(workload.queries)
            for query in workload.queries:
                assert results[query.identifier] == baseline.get(
                    query.identifier
                )
            batched = service.metrics.batch_size.snapshot(route=service.route)
            assert batched["sum"] == len(workload.queries)

    def test_repeated_spectrum_hits_cache(self, index_path, workload):
        with make_service(index_path) as service:
            query = workload.queries[0]
            first, cached_first = service.search_one_detailed(query)
            batches = service.stats()["scheduler"]["batches"]
            second, cached_second = service.search_one_detailed(query)
            assert not cached_first
            assert cached_second
            assert first == second
            # The hit was answered without running the engine again.
            stats = service.stats()
            assert stats["cache"]["hits"] == 1
            assert stats["scheduler"]["batches"] == batches

    def test_cache_hit_rewrites_query_id(self, index_path, workload):
        import dataclasses

        with make_service(index_path) as service:
            query = workload.queries[0]
            original = service.search_one(query)
            assert original is not None
            renamed = dataclasses.replace(query, identifier="resubmitted")
            psm, cached = service.search_one_detailed(renamed)
            assert cached
            assert psm.query_id == "resubmitted"
            assert psm == dataclasses.replace(
                original, query_id="resubmitted"
            )

    def test_unmatched_query_cached_as_none(self, index_path, workload):
        import dataclasses

        with make_service(index_path) as service:
            # A precursor far outside every window can match nothing.
            hopeless = dataclasses.replace(
                workload.queries[0], precursor_mz=9000.0
            )
            assert service.search_one(hopeless) is None
            psm, cached = service.search_one_detailed(hopeless)
            assert psm is None
            assert cached

    def test_search_many_dedupes_identical_spectra(
        self, index_path, workload, baseline
    ):
        import dataclasses

        with make_service(index_path) as service:
            query = workload.queries[0]
            renamed = dataclasses.replace(query, identifier="twin")
            results = service.search_many([query, renamed, query])
            expected = baseline.get(query.identifier)
            assert results[0] == expected
            assert results[2] == expected
            assert results[1] == dataclasses.replace(
                expected, query_id="twin"
            )
            # One unique digest -> one scheduled search.
            batched = service.metrics.batch_size.snapshot(route=service.route)
            assert batched["sum"] == 1

    def test_default_engine_is_one_serial_part(self, index_path):
        with make_service(index_path) as service:
            assert service.engine_name == "shardedx1"
            engine = service.stats()["engine"]
            assert engine["executor"] == "serial"
            assert "arena_bytes" not in engine
            # A route that reports ready has its rows laid out already.
            assert len(service._engine._scorers) == 1
        with make_service(
            index_path, engine_config=EngineConfig(num_shards=2, num_workers=2)
        ) as service:
            assert service.engine_name == "shardedx2"
            assert service.stats()["engine"]["executor"] == "thread"

    def test_search_many_aligns_and_coalesces(
        self, index_path, workload, baseline
    ):
        with make_service(index_path) as service:
            results = service.search_many(workload.queries)
            assert len(results) == len(workload.queries)
            for query, psm in zip(workload.queries, results):
                assert psm == baseline.get(query.identifier)
            # The whole list entered the scheduler together: far fewer
            # batches than requests.
            assert service.stats()["scheduler"]["batches"] < len(workload.queries)

    def test_reload_swaps_without_dropping_queued_requests(
        self, index_path, workload, baseline
    ):
        with make_service(index_path) as service:
            results = {}
            errors = []

            def client(shard):
                try:
                    for query in workload.queries[shard::6]:
                        results[query.identifier] = service.search_one(query)
                except Exception as error:  # pragma: no cover - fail loudly
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(shard,))
                for shard in range(6)
            ]
            for thread in threads:
                thread.start()
            service.reload()  # same path: swap engine mid-traffic
            for thread in threads:
                thread.join()
            assert not errors
            for query in workload.queries:
                assert results[query.identifier] == baseline.get(
                    query.identifier
                )
            assert service.stats()["requests"]["reloads"] == 1

    def test_stale_generation_result_is_not_cached(
        self, index_path, workload
    ):
        # A result computed on a pre-reload engine must not enter the
        # cache after reload() cleared it: a rebuilt index at the same
        # path can share a fingerprint, so the generation is the guard.
        with make_service(index_path) as service:
            query = workload.queries[0]
            digest = spectrum_digest(query)
            key = (service._fingerprint, digest)
            service._finish(digest, (None, service._fingerprint, -1))
            assert service.cache.get(key) is MISSING
            service._finish(
                digest, (None, service._fingerprint, service._generation)
            )
            assert service.cache.get(key) is None

    def test_out_of_order_ann_snapshots_count_once(self, index_path):
        # The flusher and a /score thread read the engine's cumulative
        # ANN counters under the engine lock but report them after it,
        # so the snapshots can arrive out of order (S2, S1, S3).
        def snapshot(window_rows):
            return {
                "bypassed": 0,
                "prefiltered": window_rows // 100,
                "window_rows": window_rows,
                "scored_rows": window_rows // 10,
            }

        with make_service(index_path) as service:
            for window_rows in (200, 100, 300):
                service._observe_ann(snapshot(window_rows), service._generation)
            # A swapped-out engine's late snapshot adds nothing either.
            service._observe_ann(snapshot(1000), service._generation - 1)
            metrics, route = service.metrics, service.route
            assert metrics.ann_window_rows.value(route=route) == 300
            assert metrics.ann_scored_rows.value(route=route) == 30
            assert metrics.ann_queries.value(route=route, outcome="prefiltered") == 3

    def test_reload_bumps_generation(self, index_path, workload):
        with make_service(index_path) as service:
            assert service._generation == 0
            service.reload()
            assert service._generation == 1

    def test_reload_requires_path_for_memory_index(self, index):
        service = SearchService(index, ServiceConfig())
        try:
            with pytest.raises(ValueError, match="in-memory"):
                service.reload()
        finally:
            service.close()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "batched"},
            {"kind": "warp-drive"},
            {"num_workers": -1},
        ],
    )
    def test_config_rejects_unsupported_values(self, overrides):
        with pytest.raises(ValueError):
            ServiceConfig(engine_config=EngineConfig(**overrides))
        with pytest.raises(ValueError, match="mode"):
            ServiceConfig(mode="sideways")

    def test_stats_shape(self, index_path, workload):
        with make_service(index_path) as service:
            service.search_one(workload.queries[0])
            stats = service.stats()
            assert stats["requests"]["search"] == 1
            assert stats["cache"]["misses"] >= 1
            assert stats["scheduler"]["batches"] >= 1
            assert stats["latency"]["mean_ms"] is not None
            assert stats["engine"]["num_references"] == len(
                service.index
            )

    def test_close_is_idempotent(self, index_path):
        service = make_service(index_path)
        service.close()
        service.close()


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def http_service(index_path):
    service = SearchService(index_path, ServiceConfig())
    server = start_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, SearchClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


class TestHttpApi:
    def test_concurrent_http_clients_identical(
        self, http_service, workload, baseline
    ):
        _service, client = http_service
        results = {}
        errors = []

        def worker(shard):
            try:
                for query in workload.queries[shard::8]:
                    results[query.identifier] = client.search(query)
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(shard,)) for shard in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for query in workload.queries:
            assert results[query.identifier] == baseline.get(query.identifier)

    def test_search_batch_round_trip(self, http_service, workload, baseline):
        _service, client = http_service
        psms = client.search_batch(workload.queries[:10])
        assert psms == [
            baseline.get(query.identifier) for query in workload.queries[:10]
        ]

    def test_search_reports_cache_flag(self, http_service, workload):
        _service, client = http_service
        query = workload.queries[1]
        client.search(query)
        reply = client.search_detailed(query)
        assert reply["cached"] is True
        assert reply["elapsed_ms"] >= 0

    def test_healthz(self, http_service):
        service, client = http_service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["num_references"] == service.index.num_references
        assert "LibraryIndex" in health["index"]

    def test_stats_endpoint(self, http_service):
        _service, client = http_service
        stats = client.stats()
        assert {"requests", "latency", "cache", "scheduler", "engine"} <= set(
            stats
        )

    def test_reload_under_load(self, http_service, workload, baseline):
        _service, client = http_service
        results = {}
        errors = []

        def worker(shard):
            try:
                for query in workload.queries[shard::4]:
                    results[query.identifier] = client.search(query)
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(shard,)) for shard in range(4)
        ]
        for thread in threads:
            thread.start()
        reply = client.reload()
        for thread in threads:
            thread.join()
        assert not errors
        assert reply["status"] == "ok"
        for query in workload.queries:
            assert results[query.identifier] == baseline.get(query.identifier)

    def test_bad_json_is_400(self, http_service):
        import urllib.error
        import urllib.request

        _service, client = http_service
        request = urllib.request.Request(
            client.base_url + "/search",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_spectrum_is_400(self, http_service, workload):
        _service, client = http_service
        bad = Spectrum(
            identifier="ok",
            precursor_mz=500.0,
            precursor_charge=2,
            mz=np.array([100.0]),
            intensity=np.array([1.0]),
        )
        # Valid spectrum passes; now mutilate the payload by hand.
        payload = spectrum_to_payload(bad)
        del payload["precursor_mz"]
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/search", {"spectrum": payload})
        assert excinfo.value.status == 400

    def test_reload_with_non_string_index_is_400(self, http_service):
        _service, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/reload", {"index": 5})
        assert excinfo.value.status == 400

    def test_reload_with_non_dict_body_is_400(self, http_service):
        # A wrong-shaped body must not silently reload the old path.
        _service, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/reload", ["/some/index.npz"])
        assert excinfo.value.status == 400

    def test_bad_content_length_is_400(self, http_service):
        import http.client

        _service, client = http_service
        host, port = client.base_url.replace("http://", "").rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/search")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()

    def test_oversized_body_is_413(self, http_service, workload, monkeypatch):
        from repro.service.server import SearchRequestHandler

        _service, client = http_service
        # monkeypatch deletes the attribute afterwards; restoring it by
        # assignment would leave a subclass attribute shadowing the base.
        monkeypatch.setattr(SearchRequestHandler, "max_body_bytes", 10)
        with pytest.raises(ServiceError) as excinfo:
            client.search(workload.queries[0])
        assert excinfo.value.status == 413

    def test_unknown_path_is_404(self, http_service):
        _service, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_shutdown_closes_active_keepalive_connections(self, index_path):
        # An actively-polling persistent connection must not block
        # server_close() from joining its (non-daemon) handler thread.
        import http.client

        service = SearchService(index_path, ServiceConfig())
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()  # connection is now persistent
            stopper = threading.Thread(target=server.shutdown)
            stopper.start()
            # Keep polling on the same connection; the draining server
            # must answer then close it (or refuse the reconnect).
            deadline = time.time() + 10
            closed = False
            while time.time() < deadline and not closed:
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    closed = response.getheader("Connection") == "close"
                except (http.client.HTTPException, OSError):
                    closed = True
                time.sleep(0.02)
            assert closed
            stopper.join(timeout=10)
            assert not stopper.is_alive()
            start = time.time()
            server.server_close()  # joins handler threads
            assert time.time() - start < 5
            thread.join(timeout=5)
        finally:
            conn.close()
            service.close()

    def test_close_hangs_up_idle_connections_but_finishes_replies(
        self, index_path, workload, baseline
    ):
        # A pooled client that is merely *connected* (idle between
        # requests) used to hold server_close() for the handler's whole
        # 10 s read timeout; a request in flight must still get its
        # full reply.
        service = SearchService(index_path, ServiceConfig())
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        idle = SearchClient(f"http://{host}:{port}")
        busy = SearchClient(f"http://{host}:{port}")
        entered = threading.Event()
        real_search = service._engine.search_aligned

        def slow_search(batch):
            entered.set()
            time.sleep(0.5)
            return real_search(batch)

        service._engine.search_aligned = slow_search
        replies = []
        query = workload.queries[0]
        caller = threading.Thread(
            target=lambda: replies.append(busy.search(query))
        )
        try:
            assert idle.healthz()["status"] == "ok"  # now parked, keep-alive
            caller.start()
            assert entered.wait(5)
            started = time.monotonic()
            server.shutdown()
            server.server_close()  # joins both handler threads
            assert time.monotonic() - started < 2.0
            caller.join(timeout=5)
            assert replies == [baseline.get(query.identifier)]
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            idle.close()
            busy.close()
            service.close()

    def test_unreachable_server_raises_service_error(self):
        client = SearchClient("http://127.0.0.1:9", timeout=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()


# ----------------------------------------------------------------------
# client connection reuse + stale-socket retry (satellite)
# ----------------------------------------------------------------------


class TestClientConnectionReuse:
    def test_hundred_calls_reuse_one_connection(self, index_path):
        # The regression this pins: the old client opened a fresh TCP
        # connection per request, so a 100-call loop burned 100
        # sockets.  The pooled client must use exactly one.
        from repro.service.server import SearchRequestHandler

        connections = []
        original_setup = SearchRequestHandler.setup

        def counting_setup(handler):
            connections.append(handler.client_address)
            original_setup(handler)

        service = SearchService(index_path, ServiceConfig())
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        SearchRequestHandler.setup = counting_setup
        try:
            client = SearchClient(f"http://{host}:{port}")
            for _ in range(100):
                assert client.healthz()["status"] == "ok"
            assert len(connections) <= 1
        finally:
            SearchRequestHandler.setup = original_setup
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.close()

    def test_stale_pooled_socket_is_retried_transparently(self):
        # A worker restart (or idle timeout) closes pooled sockets
        # without warning; the client must absorb exactly one such
        # failure per call by retrying on a fresh connection.
        import json as json_module
        import socketserver

        state = {"connections": 0, "requests": 0}
        lock = threading.Lock()

        class OneShotHandler(socketserver.StreamRequestHandler):
            def handle(self):
                with lock:
                    state["connections"] += 1
                length = 0
                while True:
                    line = self.rfile.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                if length:
                    self.rfile.read(length)
                with lock:
                    state["requests"] += 1
                body = json_module.dumps({"status": "ok"}).encode()
                self.wfile.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                # Returning closes the socket with no Connection: close
                # header -- the client's next reuse hits a dead socket.

        class OneShotServer(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        server = OneShotServer(("127.0.0.1", 0), OneShotHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            client = SearchClient(f"http://{host}:{port}")
            for _ in range(5):
                assert client.healthz()["status"] == "ok"
            # Five successes over five connections: every reuse failed
            # stale and was transparently retried exactly once.
            assert state["requests"] == 5
            assert state["connections"] == 5
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_healthz_reports_draining_during_shutdown(self, index_path):
        # Load balancers poll /healthz to take a worker out of
        # rotation; during drain it must answer 503 with the marker
        # instead of lying "ok" until the socket dies.
        import http.client
        import json as json_module

        service = SearchService(index_path, ServiceConfig())
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            first = conn.getresponse()
            payload = json_module.loads(first.read())
            assert first.status == 200
            assert payload["draining"] is False
            server.shutdown()  # sets draining before stopping the loop
            # The keep-alive handler thread still serves this socket.
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            payload = json_module.loads(second.read())
            assert second.status == 503
            assert payload == {"status": "draining", "draining": True}
        finally:
            conn.close()
            server.server_close()
            thread.join(timeout=10)
            service.close()


# ----------------------------------------------------------------------
# graceful sharded close (satellite)
# ----------------------------------------------------------------------


class TestGracefulShardedClose:
    def test_close_joins_pool_gracefully(self, index, workload, baseline):
        from repro.store import SegmentedSearcher

        searcher = SegmentedSearcher(
            index, engine=EngineConfig(num_shards=2, num_workers=2)
        )
        result = searcher.search(workload.queries)
        assert {psm.query_id: psm for psm in result.psms} == baseline
        searcher.close()
        assert searcher._pool is None
        assert not searcher._scorers
        searcher.close()  # idempotent

    def test_searcher_usable_after_close_reopens_pool(
        self, index, workload, baseline
    ):
        from repro.store import SegmentedSearcher

        with SegmentedSearcher(
            index, engine=EngineConfig(num_shards=2, num_workers=2)
        ) as searcher:
            searcher.search(workload.queries)
            searcher.close()
            result = searcher.search(workload.queries)
        assert {psm.query_id: psm for psm in result.psms} == baseline
