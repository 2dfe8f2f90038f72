"""Tests for the scale-out coordinator tier (repro.coord).

The load-bearing invariant: the coordinator is the fan-out core over
remote partitions — it encodes once, routes by the core's hull test and
merges the workers' ``/score`` winners with the core's one rule (max
score, then lowest reference neutral mass, then lowest global library
row).  Each partition lists its segments in ascending manifest order,
so a worker's local row order is the global order restricted to its
subset, and the result must be **bit-identical** to a single-node
search for every partition count, strategy and mode.  Everything else
here — hedging, retry, the config and encoding cross-checks, admission
control, the HTTP front-end — is robustness plumbing around that
invariant.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import http.server
import json
import logging
import os
import signal
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coord import (
    Coordinator,
    CoordinatorError,
    PartitionPlan,
    assign_replicas,
    materialize_partitions,
)
from repro.coord.partition import _contiguous_groups
from repro.engine import EngineConfig
from repro.hdc.packing import pack_bipolar
from repro.hdc.spaces import HDSpaceConfig
from repro.index import INDEX_FORMAT_VERSION, ReferenceRecord
from repro.oms import HDSearchConfig
from repro.oms.loop import FanOutSearcher
from repro.service import (
    IndexRegistry,
    SearchClient,
    SearchService,
    ServiceConfig,
    ServiceError,
    ServiceMetrics,
    start_server,
)
from repro.service.protocol import (
    SCORE_CONTENT_TYPE,
    decode_score_request,
    encode_score_reply,
    encode_score_request,
    spectrum_to_payload,
)
from repro.store import SegmentedSearcher, SegmentedStore, build_store

MODES = ("open", "standard", "cascade")


@pytest.fixture(scope="module")
def space_config(binning):
    return HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=17)


@pytest.fixture(scope="module")
def references(small_workload):
    return small_workload.references


@pytest.fixture(scope="module")
def queries(small_workload):
    return small_workload.queries


@pytest.fixture(scope="module")
def store(tmp_path_factory, references, space_config, binning):
    store = build_store(
        references,
        tmp_path_factory.mktemp("coord") / "store",
        space_config=space_config,
        binning=binning,
        segment_rows=13,
    )
    yield store
    store.close()


@pytest.fixture(scope="module")
def baseline(store, queries):
    """Single-node truth: query id -> winner payload (global rows)."""
    with SegmentedSearcher(store) as searcher:
        result = searcher.search(queries)
    return {psm.query_id: psm.to_dict() for psm in result.psms}


# ----------------------------------------------------------------------
# partition plans
# ----------------------------------------------------------------------


class TestContiguousGroups:
    def test_balances_by_count(self):
        groups = _contiguous_groups([10, 10, 10, 10], 2)
        assert groups == [[0, 1], [2, 3]]

    def test_groups_stay_nonempty_under_forced_cuts(self):
        # One huge head segment would swallow every ideal boundary;
        # the tail groups must still each get a segment.
        groups = _contiguous_groups([100, 1, 1, 1], 4)
        assert groups == [[0], [1], [2], [3]]

    def test_one_group_takes_everything(self):
        assert _contiguous_groups([3, 5, 2], 1) == [[0, 1, 2]]

    def test_groups_partition_all_positions(self):
        counts = [7, 1, 9, 4, 2, 8]
        for parts in range(1, len(counts) + 1):
            groups = _contiguous_groups(counts, parts)
            assert len(groups) == parts
            assert all(group for group in groups)
            flattened = [position for group in groups for position in group]
            assert flattened == list(range(len(counts)))


class TestPartitionPlan:
    def test_rows_plan_covers_store(self, store):
        plan = PartitionPlan.build(store, 2, "rows")
        assert len(plan) == 2
        assert plan.num_references == store.num_references
        all_segments = sorted(
            segment_id
            for spec in plan.partitions
            for segment_id in spec.segment_ids
        )
        assert all_segments == list(range(store.num_segments))
        assert (
            sum(spec.num_references for spec in plan.partitions)
            == store.num_references
        )

    def test_partition_count_clamped_to_segments(self, store):
        plan = PartitionPlan.build(store, store.num_segments + 10, "rows")
        assert len(plan) == store.num_segments
        assert all(len(spec.segment_ids) == 1 for spec in plan.partitions)

    def test_segment_ids_ascending_in_every_partition(self, store):
        # The bit-identity invariant: local row order == global order
        # restricted to the subset requires ascending manifest order.
        for strategy in ("rows", "mass"):
            plan = PartitionPlan.build(store, 3, strategy)
            for spec in plan.partitions:
                assert list(spec.segment_ids) == sorted(spec.segment_ids)

    def test_to_global_maps_every_row(self, store):
        plan = PartitionPlan.build(store, 3, "mass")
        offsets = store.offsets
        counts = [meta.num_references for meta in store.segment_metas]
        seen = set()
        for spec in plan.partitions:
            for local in range(spec.num_references):
                seen.add(spec.to_global(local))
        assert seen == set(range(store.num_references))
        # Spot-check the arithmetic against the manifest directly.
        spec = plan.partitions[0]
        first_segment = spec.segment_ids[0]
        assert spec.to_global(0) == int(offsets[first_segment])
        last_segment = spec.segment_ids[-1]
        assert spec.to_global(spec.num_references - 1) == int(
            offsets[last_segment]
        ) + counts[last_segment] - 1

    def test_to_global_rejects_out_of_range(self, store):
        spec = PartitionPlan.build(store, 2, "rows").partitions[0]
        with pytest.raises(ValueError, match="outside partition"):
            spec.to_global(spec.num_references)
        with pytest.raises(ValueError, match="outside partition"):
            spec.to_global(-1)

    def test_mass_strategy_orders_hulls(self, store):
        plan = PartitionPlan.build(store, 3, "mass")
        mins = [spec.mass_min for spec in plan.partitions]
        assert mins == sorted(mins)

    def test_range_routing_is_a_superset_of_segment_pruning(self, store):
        # Both tiers route through the core's one hull test: a partition
        # owning a segment a window reaches is itself routed to.
        plan = PartitionPlan.build(store, 3, "mass")
        lows, highs = np.array([0.0, 900.0, 1e9]), np.array([1e6, 1100.0, 2e9])
        with SegmentedSearcher(store) as searcher:
            segments = searcher._parts_for(lows, highs)
        with Coordinator(
            plan.partitions, [["http://127.0.0.1:9"]] * len(plan), probe_interval=30.0
        ) as coordinator:
            partitions = coordinator._parts_for(lows, highs)
        assert segments[:, 0].all() and not segments[:, 2].any()
        for spec, routed in zip(plan.partitions, partitions):
            for segment_id in spec.segment_ids:
                assert (segments[segment_id] <= routed).all()

    def test_invalid_inputs_rejected(self, store):
        with pytest.raises(ValueError, match="unknown partition strategy"):
            PartitionPlan.build(store, 2, "zodiac")
        with pytest.raises(ValueError, match="at least one partition"):
            PartitionPlan.build(store, 0, "rows")

    def test_materialized_partitions_are_real_stores(self, store, tmp_path):
        plan = PartitionPlan.build(store, 2, "rows")
        paths = materialize_partitions(store, plan, root=tmp_path / "parts")
        assert sorted(paths) == [0, 1]
        for spec in plan.partitions:
            partition = SegmentedStore.open(paths[spec.index])
            assert partition.num_references == spec.num_references
            assert partition.num_segments == len(spec.segment_ids)
            # Zero-copy: rows come from the original segment archives.
            rows = [record.identifier for record in partition.iter_records()]
            expected = []
            for segment_id in spec.segment_ids:
                expected.extend(store.segment(segment_id).identifiers)
            assert rows == expected
            partition.close()


class TestAssignReplicas:
    def test_round_robin_deal(self):
        groups = assign_replicas(["a", "b", "c", "d"], 2)
        assert groups == [["a", "c"], ["b", "d"]]

    def test_requires_one_worker_per_partition(self):
        with pytest.raises(ValueError, match="at least that many"):
            assign_replicas(["a"], 2)


# ----------------------------------------------------------------------
# the merge rule: the core's, whatever the parts are
# ----------------------------------------------------------------------


class _CannedParts(FanOutSearcher):
    """Parts that answer fixed winners, so only the core's merge decides.

    ``winners[p]`` maps a mode to part *p*'s ``(score, mass, global
    row)`` for every query, or to None (an empty window).  A remote
    partition, a shard and a segment all reach the merge this way.
    """

    part_name = "canned"

    def __init__(self, winners, mode="open"):
        self._init_core(
            encoder=None,
            preprocessing=None,
            windows=None,
            config=HDSearchConfig(mode=mode),
            engine=EngineConfig(),
            num_parts=len(winners),
            label="canned",
        )
        self._bounds = winners
        # Full-range hulls: every query reaches every part.
        self._hulls = np.array([[-np.inf, np.inf]] * len(winners))
        self.answered = []

    def _map_parts(self, jobs):
        timed = []
        for part, (_queries, masses, _charges, half_width) in jobs:
            mode = "standard" if half_width == self.windows.half_width("standard") else "open"
            winner = self._bounds[part].get(mode)
            n = len(masses)
            if winner is None:
                columns = (np.zeros(n, np.int64), np.full(n, -np.inf), np.full(n, np.inf), np.full(n, -1))
            else:
                score, mass, row = winner
                columns = (np.ones(n, np.int64), np.full(n, score), np.full(n, mass), np.full(n, row))
            self.answered.append(columns)
            timed.append((0.0, columns))
        return timed

    def _reference(self, position):
        return ReferenceRecord(f"r{position}", None, False, 500.0, 2)


def _merged(*winners, mode="open"):
    """The core's merged ``(score, mass, row)`` for one query over ``winners``."""
    parts = _CannedParts([{mode: winner} for winner in winners], mode)
    counts, scores, masses, rows, _records = parts.score_batch(
        np.zeros((1, 1), np.uint8), [500.0], [2], 500.0
    )
    return None if rows[0] < 0 else (scores[0], masses[0], rows[0])


class TestMergeRule:
    def test_highest_score_wins(self):
        assert _merged((10.0, 500.0, 1), (12.0, 700.0, 7)) == (12.0, 700.0, 7)

    def test_score_tie_breaks_to_lower_mass(self):
        assert _merged((10.0, 700.0, 0), (10.0, 500.0, 5))[1] == 500.0

    def test_full_tie_breaks_to_lower_global_row(self):
        assert _merged((10.0, 500.0, 3), (10.0, 500.0, 5))[2] == 3

    def test_standard_candidates_exclude_open_ones(self, queries):
        # Cascade: a partition matching in the standard window means the
        # single-node standard pass matched, so a higher-scoring open
        # candidate elsewhere must lose — the second pass never runs.
        parts = _CannedParts(
            [{"open": (99.0, 500.0, 0)}, {"standard": (1.0, 500.0, 5), "open": (1.0, 500.0, 5)}],
            "cascade",
        )
        (psm,) = parts._search_batch([queries[0]], np.ones((1, 8), np.int8))
        assert (psm.mode, psm.score, psm.library_position) == ("standard", 1.0, 5)

    def test_all_none_merges_to_none(self):
        assert _merged(None, None) is None

    def test_missing_merge_fields_raise(self, store, queries):
        # A /score reply without its winner positions cannot be merged
        # exactly: the call fails like a transport error.
        worker = _StubWorker(_encoding(store), drop="positions")
        plan = PartitionPlan.build(store, 1, "rows")
        try:
            with Coordinator(plan.partitions, [[worker.url]], probe_interval=30.0) as coordinator:
                with pytest.raises(CoordinatorError, match="every replica.*positions"):
                    coordinator.search_payloads([spectrum_to_payload(queries[0])])
        finally:
            worker.stop()

    def test_input_payloads_are_not_mutated(self):
        parts = _CannedParts([{"open": (10.0, 500.0, 2)}, {"open": None}])
        parts.score_batch(np.zeros((3, 1), np.uint8), [1.0, 2.0, 3.0], [2, 2, 2], 500.0)
        assert [column.tolist() for column in parts.answered[0]] == [
            [1, 1, 1], [10.0] * 3, [500.0] * 3, [2, 2, 2]
        ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_partitioned_lexsort_merge_equals_global(data):
    """Partition-local winners merged by the core == the global lexsort.

    Draws a score/mass table with deliberate ties, splits it into
    contiguous partitions, lets each answer its own
    ``np.lexsort((positions, masses, -scores))`` winner in global rows,
    and asserts the core's merge picks the global rule's winner.
    """
    num_rows = data.draw(st.integers(1, 24), label="rows")
    draw = lambda values, label: np.asarray(  # noqa: E731
        data.draw(st.lists(st.sampled_from(values), min_size=num_rows, max_size=num_rows), label=label)
    )
    scores = draw([1.0, 2.0, 3.0], "scores")
    masses = draw([100.0, 200.0, 300.0], "masses")
    num_parts = data.draw(st.integers(1, 4), label="parts")
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, num_rows), min_size=num_parts - 1, max_size=num_parts - 1),
            label="cuts",
        )
    )
    bounds = [0, *cuts, num_rows]
    positions = np.arange(num_rows)
    expected = int(np.lexsort((positions, masses, -scores))[0])
    winners = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi == lo:
            winners.append(None)
            continue
        local = lo + int(np.lexsort((positions[lo:hi], masses[lo:hi], -scores[lo:hi]))[0])
        winners.append((float(scores[local]), float(masses[local]), local))
    assert _merged(*winners) == (scores[expected], masses[expected], expected)


# ----------------------------------------------------------------------
# bit-identity through the real coordinator: partitions x strategy x mode
# ----------------------------------------------------------------------


def _coordinator_front(coordinator, max_inflight):
    """``coordinator`` served the way ``repro coordinate`` serves it.

    Returns ``(server, registry)``; closing the registry closes the
    coordinator.
    """
    registry = IndexRegistry(
        coordinator,
        config=ServiceConfig(cache_capacity=0, max_inflight=max_inflight),
        metrics=ServiceMetrics(coordinator.metrics.registry),
    )
    return start_server(registry), registry


@contextlib.contextmanager
def _served(coordinator, max_inflight=4):
    """``coordinator`` behind a serving front; yields its URL, then closes both."""
    front, registry = _coordinator_front(coordinator, max_inflight)
    thread = threading.Thread(target=front.serve_forever, daemon=True)
    thread.start()
    try:
        yield "http://%s:%s" % front.server_address[:2]
    finally:
        front.shutdown()
        front.server_close()
        thread.join(timeout=10)
        registry.close()


def _worker_counter(url, endpoint):
    """A worker's ``hdoms_service_requests_total`` for ``endpoint``."""
    line = f'hdoms_service_requests_total{{route="default",endpoint="{endpoint}"}} '
    text = SearchClient(url).metrics()
    return sum(float(row[len(line):]) for row in text.splitlines() if row.startswith(line))


@contextlib.contextmanager
def _coordinate_process(store, flags):
    """A ``repro coordinate`` process over ``store``; yields its URL, then SIGTERMs it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "coordinate", "--store", str(store.root),
         "--partitions", "2", *flags, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        for line in process.stdout:
            if "listening on http://" in line:
                yield "http://" + line.split("listening on http://", 1)[1].split()[0]
                break
        else:
            pytest.fail("repro coordinate exited before listening")
        process.send_signal(signal.SIGTERM)
        assert "coordinator drained and closed" in process.communicate(timeout=30)[0]
        assert process.returncode == 0
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
            process.communicate(timeout=10)


def _encoding(store):
    """What a worker serving ``store`` reports as its encoding."""
    provenance = store.provenance()
    return {
        key: provenance[key] for key in ("space", "binning", "preprocessing", "format_version")
    }


class _Fleet:
    """In-thread ``repro serve`` workers, one per store path."""

    def __init__(self, paths, **config):
        self.services, self.servers, self.urls = [], [], []
        for path in paths:
            service = SearchService(path, ServiceConfig(**config))
            server = start_server(service)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            self.services.append(service)
            self.servers.append(server)
            self.urls.append("http://%s:%s" % server.server_address[:2])

    def close(self):
        for service, server in zip(self.services, self.servers):
            server.shutdown()
            server.server_close()
            service.close()


@pytest.mark.parametrize("strategy", ["rows", "mass"])
@pytest.mark.parametrize("num_partitions", [1, 2, 3, 5])
def test_partitioned_search_merges_bit_identically(
    store, queries, tmp_path, strategy, num_partitions
):
    plan = PartitionPlan.build(store, num_partitions, strategy)
    paths = materialize_partitions(store, plan, root=tmp_path / "parts")
    payloads = [spectrum_to_payload(query) for query in queries]
    for mode in MODES:
        with SegmentedSearcher(store, config=HDSearchConfig(mode=mode)) as searcher:
            truth = [psm.to_dict() if psm else None for psm in searcher.search_aligned(queries)]
        fleet = _Fleet([paths[spec.index] for spec in plan.partitions], mode=mode)
        try:
            with Coordinator(
                plan.partitions, [[url] for url in fleet.urls], mode=mode, probe_interval=30.0
            ) as coordinator:
                coordinator.wait_ready(timeout=30)
                assert coordinator.search_payloads(payloads) == truth, (
                    f"{strategy}/{num_partitions}/{mode} diverged"
                )
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# coordinator end-to-end over in-process workers
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def coordinator_stack(store, tmp_path_factory):
    """2 partitions, 2 in-thread workers, coordinator + HTTP front."""
    plan = PartitionPlan.build(store, 2, "rows")
    paths = materialize_partitions(
        store, plan, root=tmp_path_factory.mktemp("parts")
    )
    workers = []
    urls = []
    for spec in plan.partitions:
        service = SearchService(
            paths[spec.index], ServiceConfig()
        )
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        workers.append((service, server, thread))
        urls.append(f"http://{host}:{port}")
    coordinator = Coordinator(
        plan.partitions, [[url] for url in urls], probe_interval=0.5
    )
    coordinator.wait_ready(timeout=30)
    front, registry = _coordinator_front(coordinator, max_inflight=16)
    front_thread = threading.Thread(target=front.serve_forever, daemon=True)
    front_thread.start()
    host, port = front.server_address[:2]
    yield f"http://{host}:{port}", coordinator, plan
    front.shutdown()
    front.server_close()
    front_thread.join(timeout=10)
    registry.close()
    for service, server, thread in workers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()


class TestCoordinatorHTTP:
    def test_batch_is_bit_identical_to_single_node(
        self, coordinator_stack, queries, baseline
    ):
        url, _coordinator, _plan = coordinator_stack
        client = SearchClient(url)
        psms = client.search_batch(queries)
        assert len(psms) == len(queries)
        for query, psm in zip(queries, psms):
            expected = baseline.get(query.identifier)
            payload = psm.to_dict() if psm is not None else None
            assert payload == expected

    def test_single_search_matches_and_carries_request_id(
        self, coordinator_stack, queries, baseline
    ):
        url, _coordinator, _plan = coordinator_stack
        client = SearchClient(url)
        reply = client.search_detailed(queries[0], request_id="coord-test-1")
        assert reply["request_id"] == "coord-test-1"
        assert reply["route"] == "default"
        assert reply["psm"] == baseline.get(queries[0].identifier)

    def test_request_id_crosses_the_hop_and_debug_trace_answers(
        self, coordinator_stack, queries
    ):
        from repro.obs.trace import get_tracer

        url, _coordinator, _plan = coordinator_stack
        client = SearchClient(url)
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enable()
        try:
            client.search_batch(queries[:4], request_id="coord-hop-1")
            # Workers and coordinator share this process's tracer: the
            # worker-side span carries the id minted at the coordinator.
            names = {span.name for span in tracer.spans_for("coord-hop-1")}
            assert {"service.search_batch", "coord.route", "coord.merge"} <= names
            assert "service.score" in names
            events = client.debug_trace(request_id="coord-hop-1")["traceEvents"]
            assert "service.search_batch" in {
                event["name"] for event in events if event.get("ph") == "X"
            }
            slow = client.debug_slow()
            assert slow["observed"] >= 1
        finally:
            if not was_enabled:
                tracer.disable()

    def test_queries_are_encoded_once_and_workers_only_score(
        self, coordinator_stack, queries
    ):
        from repro.obs.trace import get_tracer

        url, coordinator, _plan = coordinator_stack
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enable()
        try:
            SearchClient(url).search_batch(queries, request_id="coord-once-1")
            names = [span.name for span in tracer.spans_for("coord-once-1")]
        finally:
            if not was_enabled:
                tracer.disable()
        # One open pass: one encode, here; one /score per routed partition.
        assert names.count("encode.batch") == 1
        assert names.count("service.score") == names.count("coord.score") >= 1
        # The one service.search_batch is the coordinator's own route.
        assert names.count("service.search_batch") == 1
        for partition in coordinator.stats()["partitions"]:
            text = SearchClient(partition["workers"][0]["url"]).metrics()
            assert 'endpoint="score"' in text and 'endpoint="search_batch"' not in text

    def test_healthz_reports_fleet_and_topology(self, coordinator_stack):
        url, _coordinator, plan = coordinator_stack
        health = SearchClient(url).healthz()
        assert health["status"] == "ok"
        assert health["role"] == "coordinator"
        assert health["draining"] is False
        assert health["num_partitions"] == len(plan)
        assert health["num_references"] == plan.num_references

    def test_stats_exposes_workers_and_admission(self, coordinator_stack):
        url, _coordinator, plan = coordinator_stack
        stats = SearchClient(url).stats()
        assert stats["max_inflight"] == 16
        assert len(stats["partitions"]) == len(plan)
        for partition in stats["partitions"]:
            assert partition["workers"]
            assert all(w["healthy"] for w in partition["workers"])

    def test_metrics_exports_fanout_counters(
        self, coordinator_stack, queries
    ):
        url, _coordinator, _plan = coordinator_stack
        client = SearchClient(url)
        client.search(queries[0])
        text = client.metrics()
        assert 'hdoms_service_requests_total{route="default",endpoint="search"}' in text
        assert "hdoms_coord_scatter_total" in text
        assert "hdoms_coord_fanout_partitions" in text

    def test_unknown_route_rejected(self, coordinator_stack, queries):
        # The registry's UnknownRouteError, as on a worker.
        url, _coordinator, _plan = coordinator_stack
        client = SearchClient(url, route="yeast")
        with pytest.raises(ServiceError, match="unknown route 'yeast'") as info:
            client.search(queries[0])
        assert info.value.status == 404

    def test_unknown_path_is_404(self, coordinator_stack):
        url, _coordinator, _plan = coordinator_stack
        with pytest.raises(ServiceError) as info:
            SearchClient(url)._request("GET", "/nope")
        assert info.value.status == 404

    def test_the_coordinator_caches_nothing(self, coordinator_stack, store, queries, baseline):
        # A worker's /reload cannot reach a coordinator-side cache, so a
        # repeat must be scored by the workers again, not served stale.
        # The real `repro coordinate`, fronting this module's workers.
        _url, coordinator, _plan = coordinator_stack
        workers = [p["workers"][0]["url"] for p in coordinator.stats()["partitions"]]
        query = next(q for q in queries if baseline.get(q.identifier) is not None)
        flags = [flag for worker in workers for flag in ("--worker", worker)]
        with _coordinate_process(store, flags) as url:
            client = SearchClient(url, timeout=30)
            for _ in range(2):
                before = sum(_worker_counter(worker, "score") for worker in workers)
                reply = client.search_detailed(query)
                assert reply["psm"] == baseline[query.identifier]
                assert reply["cached"] is False
                assert sum(_worker_counter(worker, "score") for worker in workers) > before

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/reload", {}),
            ("/reload", {"index": "STORE"}),
            ("/reload", {"route": "extra", "index": "STORE"}),
            ("/reload", {"ann": True}),
            ("/reload", {"route": "default", "remove": True}),
            ("/reload", {"route": "extra", "remove": True}),
            ("/score", None),
            ("/score", {"packed": "", "dim": 256, "masses": [], "charges": [], "half_width": 1.0}),
        ],
        ids=["reload", "swap", "add-route", "ann", "remove-default", "remove-unknown", "score",
             "score-json-body"],
    )
    def test_endpoints_new_to_the_coordinator_end_typed(
        self, coordinator_stack, store, queries, baseline, path, body
    ):
        url, _coordinator, _plan = coordinator_stack
        client = SearchClient(url, timeout=30)
        if body is None:
            # /score over the fleet: what one worker on the whole store answers.
            packed, masses, charges = _encoded(store, queries)
            got = client.score(packed, store.dim, masses, charges, 500.0)
            with SegmentedSearcher(store) as searcher:
                expected = searcher.score_batch(packed, masses, charges, 500.0)
            for column, want in zip(got[:4], expected[:4]):
                assert column.tolist() == want.tolist()
            assert got[4] == expected[4] and any(got[4])
        else:
            body = {key: str(store.root) if value == "STORE" else value for key, value in body.items()}
            with pytest.raises(ServiceError) as info:
                client._request("POST", path, body)
            assert 400 <= info.value.status < 500
            assert "\n" not in str(info.value)
        assert client.healthz()["routes"].keys() == {"default"}
        psms = client.search_batch(queries)
        assert [psm.to_dict() if psm else None for psm in psms] == [
            baseline.get(query.identifier) for query in queries
        ]

    def test_before_any_encoding_is_adopted_searches_are_503(self, store, queries):
        plan = PartitionPlan.build(store, 1, "rows")
        coordinator = Coordinator(
            plan.partitions, [["http://127.0.0.1:9"]], probe_interval=30.0, worker_timeout=5.0
        )
        front, registry = _coordinator_front(coordinator, max_inflight=4)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        url = "http://%s:%s" % front.server_address[:2]
        try:
            connection = http.client.HTTPConnection(*front.server_address[:2], timeout=10)
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            health = json.loads(response.read())
            assert response.status == 503
            assert (health["status"], health["role"]) == ("degraded", "coordinator")
            connection.close()
            client = SearchClient(url)
            packed, masses, charges = _encoded(store, queries[:2])
            for call in (
                lambda: client.search(queries[0]),
                lambda: client.search_batch(queries[:2]),
                lambda: client.score(packed, store.dim, masses, charges, 500.0),
            ):
                with pytest.raises(ServiceError, match="every replica failed") as info:
                    call()
                assert info.value.status == 503
        finally:
            front.shutdown()
            front.server_close()
            thread.join(timeout=10)
            registry.close()

    def test_bad_spectrum_rejected_before_admission(self, coordinator_stack):
        url, coordinator, _plan = coordinator_stack
        with pytest.raises(ServiceError) as info:
            SearchClient(url)._request(
                "POST", "/search", {"spectrum": {"identifier": "broken"}}
            )
        assert info.value.status == 400

    def test_full_admission_gate_says_429_with_retry_after(self, store, queries):
        # A front admitting nothing: every search must bounce with 429 +
        # Retry-After before it reaches the coordinator.
        plan = PartitionPlan.build(store, 1, "rows")
        coordinator = Coordinator(
            plan.partitions, [["http://127.0.0.1:9"]], probe_interval=30.0
        )
        front, registry = _coordinator_front(coordinator, max_inflight=0)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        host, port = front.server_address[:2]
        try:
            connection = http.client.HTTPConnection(host, port, timeout=10)
            body = json.dumps(
                {"spectrum": spectrum_to_payload(queries[0])}
            )
            connection.request(
                "POST",
                "/search",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert "capacity" in payload["error"]
            rejected = registry.metrics.rejected.value(route="default", endpoint="search")
            assert rejected >= 1
            connection.close()
        finally:
            front.shutdown()
            front.server_close()
            thread.join(timeout=10)
            registry.close()

    def test_draining_coordinator_says_503_on_healthz(self, store):
        # A dedicated front (shutting down the shared one would break
        # the other tests): healthz flips to 503/draining once
        # shutdown begins, exactly like a worker.
        plan = PartitionPlan.build(store, 1, "rows")
        coordinator = Coordinator(
            plan.partitions,
            [["http://127.0.0.1:9"]],  # never probed successfully; fine
            probe_interval=30.0,
        )
        front, registry = _coordinator_front(coordinator, max_inflight=4)
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        host, port = front.server_address[:2]
        try:
            connection = http.client.HTTPConnection(host, port, timeout=10)
            # 200 responses keep the connection alive (error responses
            # close it), so open the keep-alive socket via /stats.
            connection.request("GET", "/stats")
            first = connection.getresponse()
            first.read()
            assert first.status == 200
            front.shutdown()
            # The pooled keep-alive connection is still open; the
            # draining server must answer 503 with the drain marker.
            connection.request("GET", "/healthz")
            second = connection.getresponse()
            payload = json.loads(second.read())
            assert second.status == 503
            assert payload["draining"] is True
            connection.close()
        finally:
            front.shutdown()
            front.server_close()
            thread.join(timeout=10)
            registry.close()


class TestStandardModeRouting:
    def test_narrow_windows_skip_partitions_and_stay_identical(
        self, references, queries, space_config, binning, tmp_path
    ):
        # A mass-sorted store gives the mass strategy near-disjoint
        # hulls, so standard-mode queries route to a strict subset of
        # partitions — and the answers still match single-node exactly.
        ordered = sorted(references, key=lambda s: s.neutral_mass)
        store = build_store(
            ordered,
            tmp_path / "sorted-store",
            space_config=space_config,
            binning=binning,
            segment_rows=13,
        )
        try:
            from repro.oms.search import HDSearchConfig

            config = HDSearchConfig(mode="standard")
            with SegmentedSearcher(store, config=config) as searcher:
                truth = {
                    psm.query_id: psm.to_dict()
                    for psm in searcher.search(queries).psms
                }
            plan = PartitionPlan.build(store, 3, "mass")
            paths = materialize_partitions(store, plan)
            workers = []
            urls = []
            for spec in plan.partitions:
                service = SearchService(
                    paths[spec.index],
                    ServiceConfig(mode="standard"),
                )
                server = start_server(service)
                thread = threading.Thread(
                    target=server.serve_forever, daemon=True
                )
                thread.start()
                host, port = server.server_address[:2]
                workers.append((service, server, thread))
                urls.append(f"http://{host}:{port}")
            coordinator = Coordinator(
                plan.partitions,
                [[url] for url in urls],
                mode="standard",
                standard_tolerance=ServiceConfig().standard_tolerance_da,
                probe_interval=0.5,
            )
            try:
                coordinator.wait_ready(timeout=30)
                payloads = [spectrum_to_payload(query) for query in queries]
                merged = coordinator.search_payloads(payloads)
                for query, winner in zip(queries, merged):
                    assert winner == truth.get(query.identifier)
                skipped = sum(
                    coordinator.metrics.skipped.value(
                        partition=str(spec.index)
                    )
                    for spec in plan.partitions
                )
                assert skipped > 0, (
                    "mass-partitioned standard search should have "
                    "skipped at least one partition"
                )
            finally:
                coordinator.close()
                for service, server, thread in workers:
                    server.shutdown()
                    server.server_close()
                    thread.join(timeout=10)
                    service.close()
        finally:
            store.close()


# ----------------------------------------------------------------------
# hedging / retry plumbing
# ----------------------------------------------------------------------


class _StubWorker(http.server.ThreadingHTTPServer):
    """A worker whose ``/score`` matches nothing; ``parked`` makes it never answer.

    ``/healthz`` says ok and reports ``encoding`` without naming a row
    count or search config, so the coordinator's cross-check has
    nothing to reject.  ``status`` other than 200 fails every
    ``/score``; ``drop`` removes one column from its reply; ``json_reply``
    answers in the JSON reply of the codec before binary frames, with
    every query winning row 0.
    """

    daemon_threads = True

    def __init__(
        self, encoding, parked: bool = False, status: int = 200, drop=None, json_reply=False
    ):
        self.parked = parked
        self.release = threading.Event()
        self.batches = 0
        self.request_ids = []
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def _reply(self, payload, status=200):
                body, kind = payload, SCORE_CONTENT_TYPE
                if not isinstance(payload, bytes):
                    body, kind = json.dumps(payload).encode(), "application/json"
                self.send_response(status)
                self.send_header("Content-Type", kind)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 - http.server API
                self._reply({"status": "ok", "encoding": encoding})

            def do_POST(self):  # noqa: N802 - http.server API
                length = int(self.headers["Content-Length"])
                body = self.rfile.read(length)
                n = len(decode_score_request(body, encoding["space"]["dim"])[1])
                stub.batches += 1
                stub.request_ids.append(self.headers.get("X-Request-Id"))
                if stub.parked:
                    stub.release.wait(60)
                    self.close_connection = True
                    return
                if json_reply:
                    record = dataclasses.asdict(ReferenceRecord("r0", "PEPTIDEK/2", False, 1000.0, 2))
                    self._reply({"counts": [1] * n, "scores": [9.0] * n, "masses": [1000.0] * n,
                                 "positions": [0] * n, "records": [record] * n})
                    return
                columns = {
                    "counts": np.zeros(n, np.int64),
                    "scores": np.full(n, -np.inf),
                    "masses": np.full(n, np.inf),
                    "positions": np.full(n, -1),
                }
                if drop is not None:
                    columns[drop] = columns[drop][:0]
                reply = encode_score_reply(**columns, records=[None] * n)
                self._reply(reply if status == 200 else {"error": "boom"}, status)

        super().__init__(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return "http://%s:%s" % self.server_address[:2]

    def stop(self) -> None:
        self.release.set()
        self.shutdown()
        self.server_close()
        self.thread.join(timeout=10)


class TestHedging:
    def test_parked_primary_is_hedged_and_starves_nobody(
        self, store, queries, monkeypatch
    ):
        from repro.coord import coordinator as coordinator_module

        # Until a partition has latency samples the hedge deadline is
        # this constant; the real second would only slow the test.
        monkeypatch.setattr(coordinator_module, "DEFAULT_HEDGE_SECONDS", 0.1)
        plan = PartitionPlan.build(store, 1, "rows")
        parked = _StubWorker(_encoding(store), parked=True)
        sibling = _StubWorker(_encoding(store))
        before = set(threading.enumerate())
        coordinator = Coordinator(
            plan.partitions,
            [[parked.url, sibling.url]],
            probe_interval=30.0,
            worker_timeout=30.0,
        )
        label = str(plan.partitions[0].index)
        batch = [spectrum_to_payload(query) for query in queries[:3]]
        try:
            coordinator.wait_ready(timeout=10)
            # Both replicas are healthy and the rotation starts at the
            # first: the parked worker is the primary of this batch.
            started = time.monotonic()
            assert coordinator.search_payloads(batch) == [None] * 3
            assert time.monotonic() - started < 5.0  # not worker_timeout
            assert parked.batches == 1
            assert coordinator.metrics.hedges.value(partition=label) == 1
            assert coordinator.metrics.hedge_wins.value(partition=label) == 1
            # That call is still parked on one of its replica's threads
            # (and every second batch parks one more); nobody waits for
            # them.
            for _ in range(20):
                assert coordinator.search_payloads(batch) == [None] * 3
            assert parked.batches > 1
            assert coordinator.metrics.retries.value(partition=label) == 0
            started = time.monotonic()
            coordinator.close()
            assert time.monotonic() - started < 2.0
            # close() hung up on the parked calls, so their threads end
            # now, not after worker_timeout.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and _call_threads(before):
                time.sleep(0.02)
            assert not _call_threads(before)
        finally:
            coordinator.close()
            parked.stop()
            sibling.stop()

    def test_search_after_close_is_a_coordinator_error(self, store, queries):
        plan = PartitionPlan.build(store, 1, "rows")
        worker = _StubWorker(_encoding(store))
        try:
            coordinator = Coordinator(
                plan.partitions, [[worker.url]], probe_interval=30.0
            )
            coordinator.close()
            with pytest.raises(CoordinatorError, match="closed"):
                coordinator.search_payloads([spectrum_to_payload(queries[0])])
        finally:
            worker.stop()


def _call_threads(before):
    """Live coordinator worker-call threads started since ``before``."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("coord-p") and thread not in before
    ]


class TestCoordinatorRobustness:
    def test_all_replicas_down_is_a_coordinator_error(self, store, queries):
        plan = PartitionPlan.build(store, 1, "rows")
        probe = socketserver.TCPServer(("127.0.0.1", 0), None)
        host, port = probe.server_address
        probe.server_close()  # dead port
        coordinator = Coordinator(
            plan.partitions,
            [[f"http://{host}:{port}"]],
            probe_interval=30.0,
            worker_timeout=5.0,
        )
        try:
            with pytest.raises(CoordinatorError, match="every replica"):
                coordinator.search_payloads([spectrum_to_payload(queries[0])])
            assert (
                coordinator.metrics.worker_errors.value(
                    worker=f"http://{host}:{port}"
                )
                >= 1
            )
        finally:
            coordinator.close()

    def test_failed_primary_retries_on_sibling(self, store, queries, baseline):
        # A primary that probes healthy but fails its /score call: the
        # retry must land on the live sibling and the answer stay exact.
        plan = PartitionPlan.build(store, 1, "rows")
        failing = _StubWorker(_encoding(store), status=500)
        fleet = _Fleet([store.root])
        coordinator = Coordinator(
            plan.partitions,
            [[failing.url, fleet.urls[0]]],
            probe_interval=30.0,
            worker_timeout=20.0,
        )
        try:
            for _ in range(4):  # cover both round-robin phases
                merged = coordinator.search_payloads(
                    [spectrum_to_payload(queries[0])]
                )
                assert merged[0] == baseline.get(queries[0].identifier)
            partition_label = str(plan.partitions[0].index)
            retried = coordinator.metrics.retries.value(
                partition=partition_label
            )
            assert retried >= 1
            assert failing.batches >= 1
        finally:
            coordinator.close()
            failing.stop()
            fleet.close()

    def test_a_worker_answering_the_json_reply_fails_its_call(self, store, queries, baseline):
        # Version skew: a worker still on the JSON /score reply names a
        # winner for every query.  Its call fails like a transport error:
        # retried on a sibling, or the partition's "every replica
        # failed" -- never a PSM built from it.
        plan = PartitionPlan.build(store, 1, "rows")
        stale = _StubWorker(_encoding(store), json_reply=True)
        fleet = _Fleet([store.root])
        payloads = [spectrum_to_payload(query) for query in queries[:3]]
        expected = [baseline.get(query.identifier) for query in queries[:3]]
        try:
            with Coordinator(
                plan.partitions, [[stale.url, fleet.urls[0]]], probe_interval=30.0
            ) as coordinator:
                for _ in range(2):  # both round-robin phases
                    assert coordinator.search_payloads(payloads) == expected
                assert coordinator.metrics.retries.value(partition=str(plan.partitions[0].index)) == 1
            with Coordinator(plan.partitions, [[stale.url]], probe_interval=30.0) as coordinator:
                with pytest.raises(CoordinatorError, match="every replica failed.*HDSC"):
                    coordinator.search_payloads(payloads)
            assert stale.batches == 2
        finally:
            stale.stop()
            fleet.close()

    def test_mismatched_worker_is_marked_unhealthy(self, store):
        # A worker serving the WHOLE store behind a partition spec for
        # half of it would merge garbage; the prober must reject it.
        plan = PartitionPlan.build(store, 2, "rows")
        service = SearchService(
            store.root, ServiceConfig()
        )
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        coordinator = Coordinator(
            plan.partitions, [[url], [url]], probe_interval=0.2
        )
        try:
            with pytest.raises(CoordinatorError, match="no healthy worker"):
                coordinator.wait_ready(timeout=2.0)
            stats = coordinator.stats()
            for partition in stats["partitions"]:
                worker = partition["workers"][0]
                assert worker["healthy"] is False
                assert "expects" in worker["last_error"]
        finally:
            coordinator.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.close()


class TestFaultIsolation:
    """Each coordinator request scatters on its own thread: one partition's
    trouble reaches only the requests routed to it."""

    @staticmethod
    def _split(store, queries, tolerance=0.05):
        """A 2-way plan, the partition to break, and two standard-mode queries.

        The first query's window routes to the broken partition, the
        second's only to the other one (the hulls may nest, so the
        broken one is whichever leaves such a query).
        """
        plan = PartitionPlan.build(store, 2, "rows")

        def routes(query, spec):
            return query.neutral_mass - tolerance <= spec.mass_max and (
                query.neutral_mass + tolerance >= spec.mass_min
            )

        for broken, other in (plan.partitions, plan.partitions[::-1]):
            spared = [q for q in queries if routes(q, other) and not routes(q, broken)]
            if spared:
                hit = next(q for q in queries if routes(q, broken))
                return plan, broken.index, hit, spared[0]
        pytest.fail("no query window avoids either partition")

    @staticmethod
    def _coordinator(plan, broken, bad, good, **options):
        """A standard-mode coordinator with stub ``bad`` behind partition ``broken``."""
        groups = [[bad.url] if spec.index == broken else [good.url] for spec in plan.partitions]
        return Coordinator(plan.partitions, groups, mode="standard", probe_interval=30.0, **options)

    def test_a_wedged_partition_stalls_only_its_own_requests(self, store, queries):
        plan, broken, to_wedged, to_healthy = self._split(store, queries)
        wedged, healthy = _StubWorker(_encoding(store), parked=True), _StubWorker(_encoding(store))
        coordinator = self._coordinator(plan, broken, wedged, healthy, worker_timeout=30.0)
        stalled = {}

        def search_wedged(url):
            try:
                SearchClient(url, timeout=60).search(to_wedged)
            except ServiceError as error:
                stalled["status"] = error.status

        try:
            coordinator.wait_ready(timeout=10)
            with _served(coordinator) as url:
                waiter = threading.Thread(target=search_wedged, args=(url,))
                waiter.start()
                try:
                    deadline = time.monotonic() + 10
                    while not wedged.batches and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert wedged.batches == 1
                    started = time.monotonic()
                    reply = SearchClient(url, timeout=30).search_detailed(to_healthy)
                    assert time.monotonic() - started < 5.0  # not the wedged call's 30 s
                    assert reply["psm"] is None  # the stub's empty window
                finally:
                    wedged.release.set()
                    waiter.join(timeout=30)
            assert stalled["status"] == 503
        finally:
            coordinator.close()
            wedged.stop()
            healthy.stop()

    def test_a_failing_partition_fails_only_its_own_requests(self, store, queries):
        plan, broken, to_failing, to_healthy = self._split(store, queries)
        failing, healthy = _StubWorker(_encoding(store), status=500), _StubWorker(_encoding(store))
        coordinator = self._coordinator(plan, broken, failing, healthy)
        routed = {"failing": to_failing, "healthy": to_healthy}
        statuses = {"failing": [], "healthy": []}

        def drive(url, kind):
            client = SearchClient(url, timeout=30)
            for _ in range(5):
                try:
                    client.search(routed[kind])
                    statuses[kind].append(200)
                except ServiceError as error:
                    statuses[kind].append(error.status)

        try:
            coordinator.wait_ready(timeout=10)
            with _served(coordinator, max_inflight=16) as url:
                threads = [
                    threading.Thread(target=drive, args=(url, kind))
                    for kind in ("failing", "healthy") * 4
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            assert statuses == {"failing": [503] * 20, "healthy": [200] * 20}
        finally:
            coordinator.close()
            failing.stop()
            healthy.stop()

    @pytest.mark.parametrize("endpoint", ["search", "search_batch", "score"])
    def test_request_id_reaches_the_workers_with_tracing_off(self, store, queries, endpoint):
        from repro.obs.trace import get_tracer

        plan = PartitionPlan.build(store, 1, "rows")
        worker = _StubWorker(_encoding(store))
        coordinator = Coordinator(plan.partitions, [[worker.url]], probe_interval=30.0)
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.disable()
        try:
            coordinator.wait_ready(timeout=10)
            with _served(coordinator) as url:
                client = SearchClient(url, timeout=30)
                if endpoint == "search":
                    client.search(queries[0], request_id="untraced-1")
                elif endpoint == "search_batch":
                    client.search_batch(queries[:3], request_id="untraced-1")
                else:
                    packed, masses, charges = _encoded(store, queries[:3])
                    client.score(packed, store.dim, masses, charges, 500.0, request_id="untraced-1")
            assert worker.request_ids and set(worker.request_ids) == {"untraced-1"}
        finally:
            if was_enabled:
                tracer.enable()
            coordinator.close()
            worker.stop()


def _encoded(store, queries):
    """Packed query rows, masses and charges, encoded as a coordinator would."""
    from repro.ms.preprocessing import preprocess
    from repro.oms.search import encode_queries

    kept = [q for q in queries if preprocess(q, store.preprocessing) is not None]
    processed = [preprocess(q, store.preprocessing) for q in kept]
    return (
        pack_bipolar(encode_queries(store.make_encoder(), processed)),
        np.array([q.neutral_mass for q in kept]),
        np.array([q.precursor_charge for q in kept]),
    )


class TestScoreHop:
    """A worker's ``/score``: packed rows in, winners out, every field checked."""

    @pytest.fixture
    def worker(self, store, monkeypatch):
        service = SearchService(store.root)
        server = start_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        calls = []
        real = service._engine.score_batch
        monkeypatch.setattr(
            service._engine, "score_batch", lambda *batch: calls.append(batch) or real(*batch)
        )
        yield SearchClient("http://%s:%s" % server.server_address[:2]), calls
        server.shutdown()
        server.server_close()
        service.close()

    def test_replies_what_the_engine_scores(self, worker, store, queries):
        client, calls = worker
        packed, masses, charges = _encoded(store, queries)
        got = client.score(packed, store.dim, masses, charges, 500.0)
        with SegmentedSearcher(store) as searcher:
            expected = searcher.score_batch(packed, masses, charges, 500.0)
        for column, want in zip(got[:4], expected[:4]):
            assert column.tolist() == want.tolist()
        assert got[4] == expected[4] and any(got[4])
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "damage",
        ["short-block", "long-block", "wrong-dim", "ragged", "negative-width",
         "nan-width", "bad-magic", "missing-field", "bad-version", "truncated-head",
         "trailing-bytes", "empty"],
    )
    def test_bad_bodies_are_400_and_never_reach_the_engine(
        self, worker, store, queries, damage
    ):
        client, calls = worker
        packed, masses, charges = _encoded(store, queries[:3])
        body = encode_score_request(packed, store.dim, masses, charges, 500.0)
        block = packed.tobytes()
        head, tail = body[: body.index(block)], body[body.index(block) + len(block) :]
        body = {
            "short-block": head + block[:-1] + tail,
            "long-block": head + block + block[:8] + tail,
            "wrong-dim": encode_score_request(packed, store.dim * 2, masses, charges, 500.0),
            "ragged": encode_score_request(
                packed, store.dim, np.append(masses, 1000.0), charges, 500.0
            ),
            "negative-width": encode_score_request(packed, store.dim, masses, charges, -1.0),
            "nan-width": encode_score_request(packed, store.dim, masses, charges, float("nan")),
            "bad-magic": b"JSON" + body[4:],
            "missing-field": head + block + tail[: 8 * len(masses)],
            "bad-version": body[:4] + (2).to_bytes(4, "little") + body[8:],
            "truncated-head": head[:-1],
            "trailing-bytes": body + b"\0",
            "empty": b"",
        }[damage]
        with pytest.raises(ServiceError) as info:
            client._exchange("POST", "/score", body, {"Content-Type": SCORE_CONTENT_TYPE})
        assert info.value.status == 400
        assert calls == []

    @pytest.mark.parametrize(
        "mass, charge", [(float("nan"), 2), (float("inf"), 2), (-float("inf"), 2), (1000.0, 0),
                         (1000.0, -3)],
        ids=["nan-mass", "inf-mass", "minus-inf-mass", "zero-charge", "negative-charge"],
    )
    def test_corrupt_masses_and_charges_are_400(self, worker, store, queries, mass, charge):
        # Scored, a non-finite mass is a silent empty window and a
        # charge below 1 an empty or wrong one: refused before the engine.
        client, calls = worker
        packed, masses, charges = _encoded(store, queries[:2])
        masses[1], charges[1] = mass, charge
        with pytest.raises(ServiceError, match="finite.*charge >= 1") as info:
            client.score(packed, store.dim, masses, charges, 500.0)
        assert info.value.status == 400
        assert calls == []

    def test_a_json_body_is_400_naming_the_codec(self, worker):
        client, calls = worker
        with pytest.raises(ServiceError, match="application/octet-stream") as info:
            client._request("POST", "/score", {"packed": "", "dim": 256, "masses": []})
        assert info.value.status == 400
        assert calls == []

    def test_route_travels_in_the_query_string(self, worker, store, queries):
        client, calls = worker
        packed, masses, charges = _encoded(store, queries[:2])
        assert len(client.score(packed, store.dim, masses, charges, 500.0, route="default")[4]) == 2
        for route, status in (("nope", 404), ("bad name!", 400), ("", 400)):
            with pytest.raises(ServiceError) as info:
                client.score(packed, store.dim, masses, charges, 500.0, route=route)
            assert info.value.status == status
        assert len(calls) == 1


class TestEncodingCrossCheck:
    def test_a_partition_built_with_another_seed_is_rejected(
        self, store, references, space_config, binning, tmp_path
    ):
        # Same library and segmentation under another seed: the same
        # rows, masses and mode, so only the encoding gives it away.
        other = build_store(
            references,
            tmp_path / "other-seed",
            space_config=dataclasses.replace(space_config, seed=space_config.seed + 1),
            binning=binning,
            segment_rows=13,
        )
        plan = PartitionPlan.build(store, 2, "rows")
        mine = materialize_partitions(store, plan, root=tmp_path / "mine")
        theirs = materialize_partitions(other, PartitionPlan.build(other, 2), root=tmp_path / "theirs")
        fleet = _Fleet([mine[0], theirs[1]])
        try:
            with Coordinator(
                plan.partitions, [[url] for url in fleet.urls], probe_interval=30.0
            ) as coordinator:
                with pytest.raises(CoordinatorError, match="no healthy worker"):
                    coordinator.wait_ready(timeout=0.5)
                first, second = (p["workers"][0] for p in coordinator.stats()["partitions"])
                assert first["healthy"] and not second["healthy"]
                assert "another space encoding" in second["last_error"]
        finally:
            fleet.close()
            other.close()


    @pytest.mark.parametrize("version", [1, None])
    def test_a_worker_on_another_index_format_is_rejected(self, store, capsys, version):
        # Same configs but an older codebook (or a build that predates
        # the report): only the index format version gives it away.
        from repro.cli import main

        encoding = _encoding(store)
        encoding.pop("format_version")
        if version is not None:
            encoding["format_version"] = version
        worker = _StubWorker(encoding)
        messages = []
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = lambda record: messages.append(record.getMessage())
        logger = logging.getLogger("repro.coord")
        logger.addHandler(handler)
        exit_codes = []
        # A coordinator that accepted the worker would serve forever:
        # run it where that fails the test instead of hanging it.
        runner = threading.Thread(
            target=lambda: exit_codes.append(main(
                ["coordinate", "--store", str(store.root), "--partitions", "1",
                 "--worker", worker.url, "--port", "0", "--startup-timeout", "0.5"]
            )),
            daemon=True,
        )
        try:
            runner.start()
            runner.join(timeout=30)
        finally:
            logger.removeHandler(handler)
            worker.stop()
        assert not runner.is_alive(), "coordinate accepted a worker on another index format"
        captured = capsys.readouterr()
        assert exit_codes == [2]
        report = captured.err.splitlines()[-1]
        assert report.startswith("coordinate: partitions [0] have no healthy")
        assert (
            f"index format version {version!r}, this build reads {INDEX_FORMAT_VERSION}"
            in report
        )
        assert "Traceback" not in captured.err
        assert worker.batches == 0
        assert len([message for message in messages if "rejected" in message]) == 1


class TestSearchConfigCrossCheck:
    """Workers answering a different search than the coordinator merges for.

    The coordinator routes and merges for one ``mode`` and window pair;
    a stock open-mode worker behind a standard-mode coordinator would
    hand back open-mode winners under ``status: ok``.
    """

    def test_mode_mismatched_workers_are_rejected_with_one_warning(
        self, coordinator_stack
    ):
        _url, serving, plan = coordinator_stack
        urls = [
            [worker["url"] for worker in partition["workers"]]
            for partition in serving.stats()["partitions"]
        ]
        # Straight off the logger: a CLI test earlier in the run may
        # have stopped the package logger propagating to caplog's root.
        messages = []
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = lambda record: messages.append(record.getMessage())
        logger = logging.getLogger("repro.coord")
        logger.addHandler(handler)
        try:
            with Coordinator(
                plan.partitions, urls, mode="standard", probe_interval=0.1
            ) as coordinator:
                with pytest.raises(CoordinatorError, match="no healthy worker"):
                    coordinator.wait_ready(timeout=0.3)
                for partition in coordinator.stats()["partitions"]:
                    (worker,) = partition["workers"]
                    assert worker["healthy"] is False
                    assert "mode 'open'" in worker["last_error"]
                    assert "expects 'standard'" in worker["last_error"]
        finally:
            logger.removeHandler(handler)
        rejected = [message for message in messages if "rejected" in message]
        assert len(rejected) == len(plan)  # once per worker, not per probe

    def test_window_mismatch_is_rejected_too(self, coordinator_stack):
        _url, serving, plan = coordinator_stack
        urls = [
            [worker["url"] for worker in partition["workers"]]
            for partition in serving.stats()["partitions"]
        ]
        with Coordinator(
            plan.partitions, urls, open_window=250.0, probe_interval=30.0
        ) as coordinator:
            with pytest.raises(CoordinatorError, match="open_window_da 500.0"):
                coordinator.wait_ready(timeout=0.3)

    def test_cli_exits_2_with_one_line_and_never_serves(
        self, coordinator_stack, store, capsys
    ):
        from repro.cli import main

        _url, serving, _plan = coordinator_stack
        workers = [
            flag
            for partition in serving.stats()["partitions"]
            for flag in ("--worker", partition["workers"][0]["url"])
        ]
        code = main(
            ["coordinate", "--store", str(store.root), "--partitions", "2",
             "--mode", "standard", *workers, "--port", "0",
             "--startup-timeout", "0.5"]
        )
        captured = capsys.readouterr()
        assert code == 2
        report = captured.err.splitlines()[-1]
        assert report.startswith("coordinate: partitions [0, 1] have no healthy")
        assert "mode 'open'" in report and "expects 'standard'" in report
        assert "Traceback" not in captured.err
        assert "listening on" not in captured.err + captured.out
