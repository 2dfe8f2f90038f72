"""Integration tests: span tracing wired through the search pipeline.

The observability checklist of the obs PR: span nesting under the
micro-batch scheduler (many requests sharing one engine span), sharded
searcher span merging across the pool boundary, the request-ID HTTP
round trip (header echo, ``/debug/trace`` filtering, ``/debug/slow``,
per-stage histograms on ``/metrics``), and the scheduler queue depth
on ``/stats``.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.engine import EngineConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex
from repro.index.sharded import ShardedSearcher
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.obs import get_tracer
from repro.oms.candidates import ENCODE_BLOCK_SIZE
from repro.service import (
    SearchClient,
    SearchService,
    ServiceConfig,
    start_server,
)


@pytest.fixture(scope="module")
def workload(binning):
    return build_workload(
        WorkloadConfig(
            name="obs-test", num_references=100, num_queries=24, seed=11
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
        source="obs-test",
    )


@pytest.fixture(scope="module")
def index_path(index, tmp_path_factory):
    return index.save(tmp_path_factory.mktemp("obs") / "library.npz")


@pytest.fixture
def traced():
    """Enable the process-global tracer for one test, then restore it."""
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    yield tracer
    tracer.disable()
    tracer.clear()


def by_name(spans):
    out = {}
    for span in spans:
        out.setdefault(span.name, []).append(span)
    return out


# ----------------------------------------------------------------------
# span nesting through the micro-batch scheduler
# ----------------------------------------------------------------------


class TestSchedulerSpans:
    def test_single_request_trace_covers_the_pipeline(
        self, index_path, workload, traced
    ):
        with SearchService(index_path, ServiceConfig()) as service:
            service.search_one_detailed(
                workload.queries[0], request_id="req-single"
            )
        spans = by_name(traced.spans_for("req-single"))
        for stage in (
            "service.search",
            "service.cache_lookup",
            "service.await_batch",
            "scheduler.queue_wait",
            "scheduler.batch",
            "engine.search",
            "encode.batch",
            "shard.fanout",
            "shard.score",
        ):
            assert stage in spans, f"missing {stage} in {sorted(spans)}"
        root = spans["service.search"][0]
        assert root.parent_id is None
        # Direct children of the ingress span.
        assert spans["service.cache_lookup"][0].parent_id == root.span_id
        awaited = spans["service.await_batch"][0]
        assert awaited.parent_id == root.span_id
        # The queue wait is emitted on the flusher thread but parented
        # on the span that submitted the request (the await_batch span).
        assert spans["scheduler.queue_wait"][0].parent_id == awaited.span_id
        # Engine-side spans nest under the flusher's batch span, which
        # inherited the request id (single-request batch).
        batch = spans["scheduler.batch"][0]
        assert batch.tags["size"] == 1
        assert batch.tags["requests"] == ["req-single"]
        engine = spans["engine.search"][0]
        assert engine.parent_id == batch.span_id
        assert spans["encode.batch"][0].parent_id == engine.span_id
        fanout = spans["shard.fanout"][0]
        assert fanout.parent_id == engine.span_id
        assert fanout.tags["executor"] == "serial"
        assert spans["shard.score"][0].parent_id == fanout.span_id
        # The root span covers its children's durations.
        assert root.duration >= spans["service.await_batch"][0].duration
        assert batch.duration >= engine.duration >= spans["encode.batch"][0].duration

    def test_coalesced_requests_share_one_engine_span(
        self, index_path, workload, traced
    ):
        num = 6
        with SearchService(index_path, ServiceConfig()) as service:
            # Hold the engine on a first request, so the next ``num``
            # queue behind it and leave as one batch (back-pressure).
            entered, release = threading.Event(), threading.Event()
            search_aligned = service._engine.search_aligned

            def gated(batch):
                if not entered.is_set():
                    entered.set()
                    assert release.wait(timeout=10)
                return search_aligned(batch)

            service._engine.search_aligned = gated

            def request(i):
                service.search_one_detailed(
                    workload.queries[i], request_id=f"req-{i}"
                )

            holder = threading.Thread(target=request, args=(num,))
            holder.start()
            assert entered.wait(timeout=10)
            threads = [
                threading.Thread(target=request, args=(i,)) for i in range(num)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while service.scheduler.queue_depth < 1 + num:  # held + queued
                assert time.monotonic() < deadline, "requests never queued"
                time.sleep(0.005)
            release.set()
            for t in [holder] + threads:
                t.join()
        spans = by_name(traced.records())
        # One flush served every queued request: one batch, one engine pass.
        batches = [s for s in spans["scheduler.batch"] if s.tags["size"] == num]
        assert len(batches) == 1
        assert sorted(batches[0].tags["requests"]) == [
            f"req-{i}" for i in range(num)
        ]
        # A shared batch belongs to no single request...
        assert batches[0].request_id is None
        engines = [
            s
            for s in spans["engine.search"]
            if s.parent_id == batches[0].span_id
        ]
        assert len(engines) == 1
        # ...but every request still owns its ingress + queue-wait spans.
        for i in range(num):
            mine = by_name(traced.spans_for(f"req-{i}"))
            assert len(mine["service.search"]) == 1
            root = mine["service.search"][0]
            assert root.parent_id is None
            assert (
                mine["scheduler.queue_wait"][0].parent_id
                == mine["service.await_batch"][0].span_id
            )

    def test_cache_hit_skips_the_scheduler(self, index_path, workload, traced):
        with SearchService(index_path, ServiceConfig()) as service:
            service.search_one_detailed(workload.queries[0], request_id="miss")
            _psm, cached = service.search_one_detailed(
                workload.queries[0], request_id="hit"
            )
        assert cached is True
        spans = by_name(traced.spans_for("hit"))
        assert spans["service.search"][0].tags["cached"] is True
        assert "service.await_batch" not in spans
        assert "scheduler.queue_wait" not in spans

    def test_disabled_tracer_records_nothing_through_the_service(
        self, index_path, workload
    ):
        tracer = get_tracer()
        assert not tracer.enabled
        tracer.clear()
        with SearchService(index_path, ServiceConfig()) as service:
            psm, cached = service.search_one_detailed(workload.queries[1])
        assert cached is False
        assert tracer.records() == []


# ----------------------------------------------------------------------
# sharded searcher: pool-worker timings merge into the parent trace
# ----------------------------------------------------------------------


class TestShardedSpans:
    def test_shard_scores_merge_under_fanout(self, index, workload, traced):
        num_shards = 3
        with ShardedSearcher(
            index, engine=EngineConfig(num_shards=num_shards)
        ) as searcher:
            searcher.search(workload.queries[:4])
        spans = by_name(traced.records())
        fanouts = spans["shard.fanout"]
        assert fanouts, "no shard.fanout spans recorded"
        scores = spans["shard.score"]
        # Every fanout (one per scoring pass) merged one timing span per
        # shard, on a virtual per-shard lane.
        assert len(scores) == num_shards * len(fanouts)
        for fanout in fanouts:
            children = [s for s in scores if s.parent_id == fanout.span_id]
            assert len(children) == num_shards
            assert sorted(s.thread for s in children) == [
                f"shard-{i}" for i in range(num_shards)
            ]
            assert sorted(s.tags["shard"] for s in children) == list(
                range(num_shards)
            )
            for child in children:
                assert child.duration > 0.0

    def test_encode_spans_keep_the_callers_parent_across_blocks(
        self, index, workload, traced
    ):
        """Every encode block runs on the caller's thread, inside its span."""
        count = 2 * ENCODE_BLOCK_SIZE + 1
        queries = (workload.queries * (count // len(workload.queries) + 1))[:count]
        with ShardedSearcher(
            index, engine=EngineConfig(num_shards=2, num_workers=2)
        ) as searcher:
            with traced.span("caller", request_id="blocks") as caller:
                searcher.search(queries)
        encodes = by_name(traced.records())["encode.batch"]
        assert len(encodes) == 3
        for span in encodes:
            assert span.request_id == "blocks"
            assert span.parent_id is not None
            assert span.lane == caller.lane


# ----------------------------------------------------------------------
# HTTP round trip
# ----------------------------------------------------------------------


@pytest.fixture
def server(index_path, traced):
    service = SearchService(index_path, ServiceConfig())
    # slow_ms=0 turns /debug/slow into a rolling log of every request.
    srv = start_server(service, slow_ms=0.0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield SearchClient(f"http://{host}:{port}"), srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        service.close()


class TestRequestIdRoundTrip:
    def test_generated_id_is_echoed_in_body_and_header(self, server, workload):
        client, _srv = server
        body = json.dumps(
            {
                "spectrum": {
                    "identifier": workload.queries[0].identifier,
                    "precursor_mz": workload.queries[0].precursor_mz,
                    "precursor_charge": workload.queries[0].precursor_charge,
                    "mz": workload.queries[0].mz.tolist(),
                    "intensity": workload.queries[0].intensity.tolist(),
                }
            }
        ).encode()
        request = urllib.request.Request(
            client.base_url + "/search",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            reply = json.loads(response.read())
            header = response.headers["X-Request-Id"]
        assert reply["request_id"] == header
        assert len(header) == 16
        int(header, 16)  # generated ids are hex

    def test_pinned_id_round_trips_to_debug_trace(self, server, workload):
        client, _srv = server
        reply = client.search_detailed(
            workload.queries[1], request_id="my-id-123"
        )
        assert reply["request_id"] == "my-id-123"
        trace = client.debug_trace(request_id="my-id-123")
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {
            "service.search",
            "service.cache_lookup",
            "service.await_batch",
            "scheduler.queue_wait",
            "scheduler.batch",
            "engine.search",
            "encode.batch",
            "shard.fanout",
            "service.serialize",
        } <= names
        # The filtered export only contains this request's spans.
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                assert event["args"]["request_id"] == "my-id-123"
        # Span durations must roughly account for the reported wall time:
        # the root span is the widest event of the filtered trace.
        root = next(
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "service.search"
        )
        for event in trace["traceEvents"]:
            if event["ph"] == "X" and event["name"] != "service.serialize":
                assert event["dur"] <= root["dur"] * 1.001

    def test_invalid_header_id_is_replaced(self, server, workload):
        client, _srv = server
        reply = client.search_detailed(
            workload.queries[2], request_id="not ok!!"
        )
        assert reply["request_id"] != "not ok!!"
        assert len(reply["request_id"]) == 16

    def test_batch_requests_share_one_request_id(self, server, workload):
        client, _srv = server
        reply = client._request(
            "POST",
            "/search_batch",
            {
                "spectra": [
                    {
                        "identifier": q.identifier,
                        "precursor_mz": q.precursor_mz,
                        "precursor_charge": q.precursor_charge,
                        "mz": q.mz.tolist(),
                        "intensity": q.intensity.tolist(),
                    }
                    for q in workload.queries[3:6]
                ]
            },
        )
        rid = reply["request_id"]
        trace = client.debug_trace(request_id=rid)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "service.search_batch" in names
        assert "service.cache_lookup" in names

    def test_debug_trace_encodes_the_request_id(self, server, workload):
        """An id with ``&`` or a space is sent as one query value."""
        client, _srv = server
        client.search_detailed(workload.queries[4], request_id="a")

        def spans(request_id):
            trace = client.debug_trace(request_id=request_id)
            return [e for e in trace["traceEvents"] if e["ph"] == "X"]

        assert spans("a")
        # No request carries either id, so neither may match request "a".
        assert spans("a&b") == []
        assert spans("a b") == []


class TestDebugAndMetricsEndpoints:
    def test_debug_slow_records_requests_with_stages(self, server, workload):
        client, srv = server
        client.search_detailed(workload.queries[7], request_id="slow-probe")
        snapshot = client.debug_slow()
        assert snapshot["threshold_ms"] == 0.0
        assert snapshot["slow"] >= 1
        record = next(
            r
            for r in snapshot["records"]
            if r["request_id"] == "slow-probe"
        )
        assert record["endpoint"] == "search"
        assert record["cached"] is False
        assert record["duration_ms"] > 0.0
        assert "encode.batch" in record["stages_ms"]
        assert "engine.search" in record["stages_ms"]

    def test_stage_histograms_reach_metrics(self, server, workload):
        client, _srv = server
        client.search_detailed(workload.queries[8])
        text = client.metrics()
        assert "hdoms_service_stage_seconds" in text
        for stage in ("encode", "engine", "queue_wait", "serialize"):
            assert f'stage="{stage}"' in text, f"missing stage {stage}"

    def test_stats_exposes_queue_depth_and_uptime(self, server, workload):
        client, _srv = server
        client.search_detailed(workload.queries[9])
        stats = client.stats()
        assert stats["scheduler"]["queue_depth"] == 0
        assert stats["uptime_seconds"] >= 0.0
        assert stats["scheduler"]["batches"] >= 1
