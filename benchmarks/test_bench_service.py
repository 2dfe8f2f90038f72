"""Bench: online service — micro-batched vs one-spectrum-per-request.

The service exists so the hot path always runs the vectorized batch
search even when clients send one spectrum at a time.  These benchmarks
measure that amortisation directly:

* **sequential** — one client, one spectrum per request, caching
  disabled: with nothing else queued, every request is a batch of one
  and pays a full single-query search;
* **micro-batched** — ``NUM_CLIENTS`` concurrent clients streaming
  their backlogs; the scheduler coalesces across clients into dense
  batch searches.

Both paths must return PSMs bit-identical to a direct
:class:`~repro.oms.search.HDOmsSearcher` run (asserted always, which
keeps the benchmark a correctness gate even on slow CI).  Coalescing +
parity are the gate at every ``REPRO_BENCH_SCALE``; the throughput
ratio is printed as a number to track, never asserted.
"""

import os
import threading
import time

import pytest
from conftest import COORD_KEYS, record_trajectory

from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms.search import HDOmsSearcher
from repro.service import SearchService, ServiceConfig

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
NUM_CLIENTS = 8
TIMED_ROUNDS = 2  # best-of to damp scheduler jitter


@pytest.fixture(scope="module")
def service_setup():
    workload = build_workload(
        WorkloadConfig(
            name="bench-service",
            num_references=max(100, int(4000 * BENCH_SCALE)),
            num_queries=max(16, int(128 * BENCH_SCALE)),
            seed=11,
        )
    )
    binning = BinningConfig()
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(
            dim=2048, num_bins=binning.num_bins, num_levels=16, seed=5
        ),
        binning=binning,
        source="bench-service",
    )
    baseline = HDOmsSearcher.from_index(index).search(workload.queries)
    return workload, index, {psm.query_id: psm for psm in baseline.psms}


def _assert_parity(results, workload, baseline):
    assert len(results) == len(workload.queries)
    for query in workload.queries:
        assert results[query.identifier] == baseline.get(query.identifier)


def _run_sequential(index, queries):
    """One spectrum per request, single client (batches of one), no cache."""
    config = ServiceConfig(cache_capacity=0)
    with SearchService(index, config) as service:
        for query in queries[: min(8, len(queries))]:  # warm the engine
            service.search_one(query)
        best = float("inf")
        results = {}
        for _ in range(TIMED_ROUNDS):
            start = time.perf_counter()
            for query in queries:
                results[query.identifier] = service.search_one(query)
            best = min(best, time.perf_counter() - start)
    return best, results


def _run_microbatched(index, queries):
    """NUM_CLIENTS concurrent clients, coalesced by the scheduler."""
    config = ServiceConfig(cache_capacity=0)
    with SearchService(index, config) as service:
        service.search_many(queries[: min(8, len(queries))])  # warm
        best = float("inf")
        results = {}
        for _ in range(TIMED_ROUNDS):

            def client(shard):
                backlog = queries[shard::NUM_CLIENTS]
                for query, psm in zip(backlog, service.search_many(backlog)):
                    results[query.identifier] = psm

            threads = [
                threading.Thread(target=client, args=(shard,))
                for shard in range(NUM_CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            best = min(best, time.perf_counter() - start)
        stats = service.stats()["scheduler"]
    return best, results, stats


def test_bench_service_microbatch_speedup(service_setup, capsys):
    """Micro-batched concurrent serving must beat request-at-a-time."""
    workload, index, baseline = service_setup
    sequential_seconds, sequential_results = _run_sequential(
        index, workload.queries
    )
    batched_seconds, batched_results, stats = _run_microbatched(
        index, workload.queries
    )
    # Correctness first: both serving modes are bit-identical to the
    # direct searcher, per query, regardless of batch composition.
    _assert_parity(sequential_results, workload, baseline)
    _assert_parity(batched_results, workload, baseline)
    # The scheduler really coalesced.  Each client's backlog enters the
    # queue atomically via search_many, so even the worst-case flush
    # schedule (every backlog flushed alone) keeps the mean well above
    # this floor — the assert is schedule-independent.
    assert stats["mean_batch_size"] > 1.5
    ratio = sequential_seconds / max(batched_seconds, 1e-9)
    queries_per_second = (
        TIMED_ROUNDS * len(workload.queries) / max(batched_seconds, 1e-9)
    )
    with capsys.disabled():
        print(
            f"\n[bench-service] sequential {sequential_seconds:.3f}s, "
            f"micro-batched ({NUM_CLIENTS} clients) {batched_seconds:.3f}s "
            f"({ratio:.2f}x, mean batch {stats['mean_batch_size']:.1f}, "
            f"{queries_per_second:.0f} q/s)"
        )
    # Parity + coalescing above are the gate; the printed ratio is a
    # number to track (wall-clock ratios flake on shared runners).


def test_bench_cache_hot_path(service_setup, benchmark):
    """A fully warmed cache serves repeats without touching the engine."""
    workload, index, baseline = service_setup
    config = ServiceConfig(cache_capacity=4096)
    with SearchService(index, config) as service:
        service.search_many(workload.queries)  # populate the cache
        batches_before = service.stats()["scheduler"]["batches"]

        def cached_pass():
            return service.search_many(workload.queries)

        results = benchmark.pedantic(cached_pass, rounds=3, iterations=1)
        _assert_parity(
            {
                query.identifier: psm
                for query, psm in zip(workload.queries, results)
            },
            workload,
            baseline,
        )
        # Every repeat was a cache hit: the engine never ran again.
        stats = service.stats()
        assert stats["scheduler"]["batches"] == batches_before
        assert stats["cache"]["hits"] >= len(workload.queries)


def test_bench_http_round_trip(service_setup, capsys):
    """End-to-end HTTP latency for a handful of single requests."""
    from repro.service import SearchClient, start_server

    workload, index, baseline = service_setup
    config = ServiceConfig()
    sample = workload.queries[: min(16, len(workload.queries))]
    with SearchService(index, config) as service:
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = SearchClient(f"http://{host}:{port}")
            client.search(sample[0])  # warm
            start = time.perf_counter()
            for query in sample:
                assert client.search(query) == baseline.get(query.identifier)
            elapsed = time.perf_counter() - start
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    with capsys.disabled():
        print(
            f"\n[bench-service] HTTP round trip "
            f"{1000.0 * elapsed / len(sample):.2f} ms/request "
            f"({len(sample)} requests)"
        )


def test_bench_coordinator_scale_out(service_setup, tmp_path, capsys):
    """Scatter-gather over 1 and 2 workers: bit-identical, ratio recorded.

    Both topologies run real subprocess workers behind the real
    coordinator (HTTP end to end), so the measured ratio includes every
    tax a deployment pays: JSON, scatter, merge.  Parity against the
    direct searcher is asserted every round.  The 2-vs-1 ratio is
    recorded in the trajectory, not gated: a wall-clock ratio depends on
    the host (17 of 17 full-scale runs on a 2-core VM measured
    0.29-0.77x), and speed claims belong to ``bench/run.py``.
    """
    from repro.coord import (
        Coordinator,
        LocalWorkerFleet,
        PartitionPlan,
        assign_replicas,
        materialize_partitions,
    )
    from repro.ms.vectorize import BinningConfig
    from repro.service import (
        IndexRegistry,
        SearchClient,
        ServiceConfig,
        ServiceMetrics,
        start_server,
    )
    from repro.store import build_store

    workload, index, baseline = service_setup
    binning = BinningConfig()
    store = build_store(
        workload.references,
        tmp_path / "bench-store",
        space_config=HDSpaceConfig(
            dim=2048, num_bins=binning.num_bins, num_levels=16, seed=5
        ),
        binning=binning,
        segment_rows=max(64, len(workload.references) // 8),
    )
    expected = [baseline.get(q.identifier) for q in workload.queries]
    timings = {}
    try:
        for num_workers in (1, 2):
            plan = PartitionPlan.build(store, num_workers, "rows")
            paths = materialize_partitions(store, plan)
            fleet = LocalWorkerFleet(
                [paths[spec.index] for spec in plan.partitions],
                workers=0,
                extra_args=("--cache-size", "0"),
            )
            coordinator = None
            registry = None
            front = None
            thread = None
            try:
                urls = fleet.wait_ready()
                coordinator = Coordinator(
                    plan.partitions, assign_replicas(urls, len(plan))
                )
                coordinator.wait_ready(timeout=120)
                # Served the way `repro coordinate` serves it.
                registry = IndexRegistry(
                    coordinator,
                    config=ServiceConfig(cache_capacity=0, max_inflight=32),
                    metrics=ServiceMetrics(coordinator.metrics.registry),
                )
                front = start_server(registry)
                thread = threading.Thread(
                    target=front.serve_forever, daemon=True
                )
                thread.start()
                host, port = front.server_address[:2]
                client = SearchClient(f"http://{host}:{port}", timeout=600)
                warm = workload.queries[: min(8, len(workload.queries))]
                client.search_batch(warm)  # warm engines on every worker
                best = float("inf")
                for _ in range(TIMED_ROUNDS):
                    start = time.perf_counter()
                    psms = client.search_batch(workload.queries)
                    best = min(best, time.perf_counter() - start)
                    assert psms == expected  # bit-identical, every round
                timings[num_workers] = best
            finally:
                if front is not None:
                    front.shutdown()
                    front.server_close()
                if thread is not None:
                    thread.join(timeout=10)
                if registry is not None:
                    registry.close()
                if coordinator is not None:
                    coordinator.close()
                fleet.close()
    finally:
        store.close()

    ratio = timings[1] / max(timings[2], 1e-9)
    queries_per_second = len(workload.queries) / max(timings[2], 1e-9)
    cores = os.cpu_count() or 1
    with capsys.disabled():
        print(
            f"\n[bench-coord] 1 worker {timings[1]:.3f}s, "
            f"2 workers {timings[2]:.3f}s ({ratio:.2f}x, "
            f"{queries_per_second:.0f} q/s coordinated, {cores} cores)"
        )
    record_trajectory(
        "BENCH_coord.json",
        {
            "bench": "coordinator-scale-out",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scale": BENCH_SCALE,
            "num_references": len(workload.references),
            "num_queries": len(workload.queries),
            "seconds_one_worker": timings[1],
            "seconds_two_workers": timings[2],
            "speedup": ratio,
            "queries_per_second": queries_per_second,
            "cpu_count": cores,
        },
        COORD_KEYS,
    )
