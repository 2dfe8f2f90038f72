"""Concurrency and fault-injection tests for the service layer.

The scenarios a production deployment actually hits:

* a request storm over two routes while one of them is hot-swapped by
  ``/reload`` — no dropped responses, no cross-routed responses, and
  the ``/metrics`` counters (and ``/stats``, their view) reconcile with
  client-observed tallies;
* many submitters racing each other for the lead (every item batched
  exactly once, no batch over ``MAX_BATCH``, never two batches at once);
* SIGTERM-style ``close()`` during an in-flight batch — every pending
  future resolves (result or error) instead of hanging, including the
  wedged-engine case where the drain can never finish.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import EngineConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex, ShardedSearcher
from repro.ms.mgf import write_mgf
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.oms.search import HDOmsSearcher
from repro.service import (
    IndexRegistry,
    MicroBatchScheduler,
    SearchClient,
    SearchService,
    ServiceConfig,
    start_server,
)
from repro.service.scheduler import MAX_BATCH

from test_service import ParkedRunner, submit, submit_queued
from test_service_metrics import parse_prometheus, sample_value

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: ``python -c`` program for the wedged-engine SIGTERM test: serve one
#: index whose engine never returns, lead a batch into it with one
#: request, queue a second, SIGTERM, then print what each client got.
WEDGED_SERVE = r"""
import os, signal, sys, threading, time
from repro.ms.mgf import read_mgf
from repro.service import SearchClient, SearchService, ServiceConfig, ServiceError
from repro.service import httpbase, start_server

httpbase.WEDGED_GRACE = 0.5
service = SearchService(sys.argv[1], ServiceConfig())
queries = list(read_mgf(sys.argv[2]))
entered = threading.Event()

def wedged_search(batch):
    entered.set()
    threading.Event().wait()

service._engine.search_aligned = wedged_search
listening = {}

def build():
    listening["server"] = start_server(service)
    return listening["server"], "wedged", service.close

outcomes = {"leader": [], "queued": []}

def client(name, query, url):
    try:
        SearchClient(url, timeout=60).search(query)
        outcomes[name].append(200)
    except ServiceError as error:
        outcomes[name].append(error.status)

def traffic():
    while "server" not in listening:
        time.sleep(0.01)
    host, port = listening["server"].server_address[:2]
    url = f"http://{host}:{port}"
    threading.Thread(target=client, args=("leader", queries[0], url), daemon=True).start()
    assert entered.wait(30)
    queued = threading.Thread(target=client, args=("queued", queries[1], url), daemon=True)
    queued.start()
    while service.scheduler.queue_depth < 2:
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGTERM)
    queued.join(30)

driver = threading.Thread(target=traffic, daemon=True)
driver.start()
code = httpbase.run_server(build, name="wedged", drain_timeout=0.5)
driver.join(30)
print("queued:", outcomes["queued"], "leader:", outcomes["leader"], flush=True)
sys.exit(code)
"""


@pytest.fixture(scope="module")
def workload_a(binning):
    return build_workload(
        WorkloadConfig(
            name="fault-a", num_references=120, num_queries=20, seed=7
        )
    )


@pytest.fixture(scope="module")
def workload_b(binning):
    return build_workload(
        WorkloadConfig(
            name="fault-b", num_references=130, num_queries=20, seed=29
        )
    )


def _save_index(workload, binning, tmp_path_factory, source):
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(
            dim=512, num_bins=binning.num_bins, num_levels=8, seed=13
        ),
        binning=binning,
        source=source,
    )
    return index, index.save(tmp_path_factory.mktemp(source) / "library.npz")


@pytest.fixture(scope="module")
def index_a(workload_a, binning, tmp_path_factory):
    return _save_index(workload_a, binning, tmp_path_factory, "fault-a")


@pytest.fixture(scope="module")
def index_b(workload_b, binning, tmp_path_factory):
    return _save_index(workload_b, binning, tmp_path_factory, "fault-b")


@pytest.fixture(scope="module")
def baselines(index_a, index_b, workload_a):
    """Per-route truth for the same query set (queries of workload A)."""
    by_route = {}
    for route, (index, _path) in (("alpha", index_a), ("beta", index_b)):
        result = HDOmsSearcher.from_index(index).search(workload_a.queries)
        by_route[route] = {psm.query_id: psm for psm in result.psms}
    return by_route


# ----------------------------------------------------------------------
# storm: two routes, concurrent clients, hot reload, metrics reconcile
# ----------------------------------------------------------------------


class TestRoutedStorm:
    NUM_THREADS = 6
    ROUNDS = 2

    def test_storm_with_hot_reload_reconciles(
        self, index_a, index_b, workload_a, baselines
    ):
        _ia, path_a = index_a
        _ib, path_b = index_b
        registry = IndexRegistry(
            {"alpha": path_a, "beta": path_b},
            default_route="alpha",
        )
        server = start_server(registry)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client_url = f"http://{host}:{port}"

        tallies = {"alpha": 0, "beta": 0}
        tally_lock = threading.Lock()
        responses = []  # (route, query_id, psm)
        errors = []
        storm_done = threading.Event()

        def storm(worker):
            client = SearchClient(client_url)
            try:
                for round_no in range(self.ROUNDS):
                    for position, query in enumerate(workload_a.queries):
                        route = (
                            "alpha"
                            if (worker + position + round_no) % 2 == 0
                            else "beta"
                        )
                        psm = client.search(query, route=route)
                        with tally_lock:
                            tallies[route] += 1
                            responses.append(
                                (route, query.identifier, psm)
                            )
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        def reloader():
            client = SearchClient(client_url)
            try:
                while not storm_done.wait(0.05):
                    client.reload(route="alpha")
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        workers = [
            threading.Thread(target=storm, args=(worker,))
            for worker in range(self.NUM_THREADS)
        ]
        swapper = threading.Thread(target=reloader)
        for worker in workers:
            worker.start()
        swapper.start()
        for worker in workers:
            worker.join(timeout=120)
        storm_done.set()
        swapper.join(timeout=30)
        try:
            assert not errors
            assert not any(worker.is_alive() for worker in workers)
            expected_total = (
                self.NUM_THREADS * self.ROUNDS * len(workload_a.queries)
            )
            # No dropped responses...
            assert len(responses) == expected_total
            assert tallies["alpha"] + tallies["beta"] == expected_total
            # ...and no cross-routed ones: every PSM matches the truth
            # of the route that was asked for, reload storm or not.
            for route, query_id, psm in responses:
                assert psm == baselines[route].get(query_id), (
                    f"route {route} answered {query_id} wrongly"
                )
            # /metrics counters reconcile with client-observed tallies.
            samples, _types = parse_prometheus(
                SearchClient(client_url).metrics()
            )
            views = SearchClient(client_url).stats()["routes"]
            requests = "hdoms_service_requests_total"
            lookups = "hdoms_service_cache_lookups_total"
            latency = "hdoms_service_request_latency_seconds_count"
            for route in ("alpha", "beta"):
                observed = sample_value(
                    samples, requests, route=route, endpoint="search"
                )
                assert observed == tallies[route]
                hits = sample_value(
                    samples, lookups, route=route, outcome="hit"
                )
                misses = sample_value(
                    samples, lookups, route=route, outcome="miss"
                )
                # One cache lookup per request, exactly.
                assert hits + misses == tallies[route]
                assert sample_value(samples, latency, route=route) == (
                    tallies[route]
                )
                # /stats reads the same families, so it cannot disagree.
                view = views[route]
                assert view["requests"]["search"] == observed
                assert (view["cache"]["hits"], view["cache"]["misses"]) == (hits, misses)
                assert view["latency"]["count"] == tallies[route]
                assert view["scheduler"]["batches"] == sample_value(
                    samples, "hdoms_service_batch_size_spectra_count", route=route
                )
            # The reloader did exercise the swap path under load.
            reloads = sample_value(
                samples, "hdoms_service_reloads_total", route="alpha"
            )
            assert reloads >= 1
            assert views["alpha"]["requests"]["reloads"] == reloads
            assert registry.get("alpha")._generation == int(reloads)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            registry.close()


# ----------------------------------------------------------------------
# submitters racing for the lead
# ----------------------------------------------------------------------


class TestFlushRace:
    def test_contention_loses_nothing(self):
        processed = []
        sizes = []
        lock = threading.Lock()

        def runner(items):
            with lock:
                processed.extend(items)
                sizes.append(len(items))
            return [item * 2 for item in items]

        scheduler = MicroBatchScheduler(runner)
        results = {}
        errors = []

        def submitter(base):
            try:
                for offset in range(50):
                    value = base * 1000 + offset
                    results[value] = scheduler.run_many([value])[0]
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [
            threading.Thread(target=submitter, args=(base,))
            for base in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        scheduler.close()
        assert not errors
        assert len(results) == 400
        assert all(value * 2 == out for value, out in results.items())
        # Every submission was batched exactly once, under the cap.
        assert sorted(processed) == sorted(results)
        assert sum(sizes) == 400
        assert max(sizes) <= MAX_BATCH

    def test_split_submission_under_contention(self):
        # One submission larger than two batches races eight single
        # submitters: its partial completions by other leaders' batches
        # must never be read as the lead (two runners at once).
        processed = []
        sizes = []
        running = {"now": 0, "max": 0}
        lock = threading.Lock()

        def runner(items):
            with lock:
                running["now"] += 1
                running["max"] = max(running["max"], running["now"])
            time.sleep(0.0005)
            with lock:
                processed.extend(items)
                sizes.append(len(items))
                running["now"] -= 1
            return [item * 2 for item in items]

        scheduler = MicroBatchScheduler(runner)
        big = list(range(100_000, 100_000 + 2 * MAX_BATCH + 3))
        singles = {}
        errors = []
        start = threading.Barrier(9)

        def submitter(base):
            try:
                start.wait(timeout=10)
                for offset in range(40):
                    value = base * 1000 + offset
                    singles[value] = scheduler.run_many([value])[0]
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        threads = [threading.Thread(target=submitter, args=(base,)) for base in range(8)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
        try:
            for thread in threads:
                thread.start()
            start.wait(timeout=10)
            time.sleep(0.002)
            assert scheduler.run_many(big) == [value * 2 for value in big]
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        scheduler.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(value * 2 == out for value, out in singles.items())
        assert sorted(processed) == sorted(list(singles) + big)
        assert max(sizes) <= MAX_BATCH
        assert running["max"] == 1


# ----------------------------------------------------------------------
# shutdown ordering: close() during an in-flight batch must not hang
# ----------------------------------------------------------------------


class TestShutdownOrdering:
    def test_close_during_inflight_batch_resolves_all(self):
        runner = ParkedRunner()
        scheduler = MicroBatchScheduler(runner)
        futures = submit_queued(scheduler, range(6))  # first batch in flight
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        runner.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert scheduler.queue_depth == 0
        assert [future.result(timeout=5) for future in futures] == [
            f"done-{value}" for value in range(6)
        ]

    def test_wedged_runner_close_fails_pending_instead_of_hanging(self):
        # The second batch, [1, 2, 3, 4], wedges on the thread of caller
        # 1, which leads it.  close(timeout) answers every other caller
        # in time with an error, in flight (2, 3, 4) or queued (5, 6).
        # Caller 1 runs the wedged runner itself: it gets its error once
        # the runner returns.
        first = threading.Event()
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def wedged(items):
            calls.append(list(items))
            if len(calls) == 1:
                assert first.wait(10)
            else:
                entered.set()
                release.wait(30)
            return list(items)

        scheduler = MicroBatchScheduler(wedged)
        futures = submit_queued(scheduler, range(5))
        first.set()
        assert entered.wait(5)
        assert calls == [[0], [1, 2, 3, 4]]
        futures += submit_queued(scheduler, [5, 6])
        started = time.monotonic()
        scheduler.close(timeout=0.5)
        elapsed = time.monotonic() - started
        assert elapsed < 5, "close() hung on the wedged runner"
        assert futures[0].result(timeout=5) == 0
        for future in futures[2:]:
            with pytest.raises(RuntimeError, match="in flight"):
                future.result(timeout=1)
        # Un-wedge; the late completion must be harmless (it delivers
        # nothing into the failed submissions) and the leader returns.
        release.set()
        with pytest.raises(RuntimeError, match="in flight"):
            futures[1].result(timeout=5)
        assert scheduler.queue_depth == 0

    def test_concurrent_close_callers_both_wait_for_drain(self):
        runner = ParkedRunner()
        scheduler = MicroBatchScheduler(runner)
        futures = submit_queued(scheduler, range(8))
        drained_at_return = []

        def closer():
            scheduler.close()
            drained_at_return.append(
                sum(len(batch) for batch in runner.batches) == 8
                and scheduler.queue_depth == 0
            )

        closers = [threading.Thread(target=closer) for _ in range(2)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=0.2)
        assert drained_at_return == []  # both wait for the parked batch
        runner.release.set()
        for thread in closers:
            thread.join(timeout=30)
        # Both callers — not just the first — returned only after every
        # queued batch drained; a caller tearing down the engine next
        # would otherwise race a still-running batch.
        assert drained_at_return == [True, True]
        assert [future.result(timeout=5) for future in futures] == [
            f"done-{value}" for value in range(8)
        ]

    def test_service_close_with_wedged_engine_fails_pending(
        self, index_a, workload_a
    ):
        # The batch of queries 1 and 2 wedges on the thread of the
        # request that leads it (query 1); query 3 queues behind it.
        _index, path = index_a
        service = SearchService(path, ServiceConfig())
        first = threading.Event()
        entered = threading.Event()
        release = threading.Event()
        real_search = service._engine.search_aligned
        calls = []

        def wedged_search(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                assert first.wait(10)
            else:
                entered.set()
                release.wait(30)
            return real_search(batch)

        service._engine.search_aligned = wedged_search
        queries = workload_a.queries
        try:
            futures = submit_queued(service.scheduler, queries[:3])
            first.set()
            assert entered.wait(5)
            assert calls == [1, 2]
            futures += submit_queued(service.scheduler, queries[3:4])
            started = time.monotonic()
            service.close(timeout=0.5)
            assert time.monotonic() - started < 5
            futures[0].result(timeout=5)  # answered before the wedge
            for future in futures[2:]:  # in flight, then queued
                with pytest.raises(RuntimeError, match="in flight"):
                    future.result(timeout=1)
        finally:
            release.set()
            with pytest.raises(RuntimeError, match="in flight"):
                futures[1].result(timeout=5)

    def test_run_server_exits_with_wedged_engine(self, index_a, workload_a, tmp_path):
        """SIGTERM with a request leading a batch inside a wedged engine.

        ``drain_timeout`` bounds the wait for the handlers: the queued
        request is failed with a 503, and the process exits although
        the leading request's thread never comes back from the engine.
        """
        _index, path = index_a
        queries = tmp_path / "queries.mgf"
        write_mgf(workload_a.queries[:2], queries)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-c", WEDGED_SERVE, str(path), str(queries)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            out, err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0, err
        assert "queued: [503]" in out
        assert "leader: []" in out  # never answered
        assert "still inside the wedged backend" in err
        assert "wedged drained and closed" in err

    def test_reload_times_out_on_wedged_engine(
        self, index_a, workload_a, monkeypatch
    ):
        # A wedged batch holds the engine lock forever; reload must
        # give up with an error instead of parking its handler thread
        # (which would hang server_close at shutdown).
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "ENGINE_SWAP_TIMEOUT", 0.2)
        _index, path = index_a
        service = SearchService(path, ServiceConfig())
        entered = threading.Event()
        release = threading.Event()
        real_search = service._engine.search_aligned

        def wedged_search(batch):
            entered.set()
            release.wait(30)
            return real_search(batch)

        service._engine.search_aligned = wedged_search
        try:
            future = submit(service.scheduler, workload_a.queries[0])
            assert entered.wait(5)
            with pytest.raises(RuntimeError, match="timed out"):
                service.reload()
        finally:
            release.set()
            future.result(timeout=10)  # the wedged batch completes
            service.close(timeout=10)

    def test_sigterm_style_service_close_under_load(
        self, index_a, workload_a, baselines
    ):
        """SIGTERM mid-traffic: every request resolves, nothing hangs.

        Clients either get the bit-identical PSM (their batch drained)
        or a clean RuntimeError (they raced the closed scheduler) —
        never a hung ``result()``.
        """
        _index, path = index_a
        service = SearchService(
            path,
            ServiceConfig(
                engine_config=EngineConfig(
                    kind="sharded", num_shards=2, num_workers=2
                ),
            ),
        )
        results = {}
        errors = []

        def client(shard):
            for query in workload_a.queries[shard::4]:
                try:
                    results[query.identifier] = service.search_one(query)
                except RuntimeError as error:
                    errors.append(error)

        threads = [
            threading.Thread(target=client, args=(shard,))
            for shard in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.03)  # let batches get in flight
        service.close(timeout=30)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), (
            "a client hung on close()"
        )
        # Whatever resolved is correct; whatever errored said so loudly.
        for query_id, psm in results.items():
            assert psm == baselines["alpha"].get(query_id)
        assert len(results) + len(errors) == len(workload_a.queries)
        for error in errors:
            assert "closed" in str(error) or "in flight" in str(error)

    def test_repro_serve_sigterm_drains_and_exits(
        self, index_a, index_b, workload_a, baselines
    ):
        """The real thing: ``repro serve`` (two routes) killed by SIGTERM.

        The process must answer routed traffic, then exit cleanly on
        SIGTERM with the drain message — not hang, not die mid-write.
        """
        _ia, path_a = index_a
        _ib, path_b = index_b
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.cli import main; import sys; sys.exit(main())",
                "serve",
                "--index",
                f"alpha={path_a}",
                "--index",
                f"beta={path_b}",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                assert line, "server exited before listening"
                if "listening on http://" in line:
                    port = int(
                        line.split("listening on http://", 1)[1]
                        .split()[0]
                        .rsplit(":", 1)[1]
                    )
                    break
            assert port, "never saw the listening line"
            client = SearchClient(f"http://127.0.0.1:{port}", timeout=30)
            query = workload_a.queries[0]
            assert client.search(query) == baselines["alpha"].get(
                query.identifier
            )
            assert client.search(query, route="beta") == baselines[
                "beta"
            ].get(query.identifier)
            assert "hdoms_service_requests_total" in client.metrics()
            process.send_signal(signal.SIGTERM)
            remaining = process.communicate(timeout=30)[0]
            assert process.returncode == 0
            assert "service drained and closed" in remaining
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate(timeout=10)

    def test_sharded_close_during_inflight_search(self, index_a, workload_a):
        index, _path = index_a
        searcher = ShardedSearcher(
            index, engine=EngineConfig(num_shards=2, num_workers=2)
        )
        outcome = {}

        def worker():
            try:
                outcome["result"] = searcher.search(workload_a.queries)
            except Exception as error:  # noqa: BLE001 - recorded
                outcome["error"] = error

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.01)  # race close() against the in-flight fan-out
        searcher.close()
        thread.join(timeout=60)
        assert not thread.is_alive(), "search hung across close()"
        assert outcome, "worker finished without recording an outcome"
        searcher.close()  # clean up any pool the racing search rebuilt


# ----------------------------------------------------------------------
# coordinator: SIGKILL a worker mid batch-storm (tentpole fault suite)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def coordinated_fleet(workload_a, binning, tmp_path_factory):
    """2 partitions x 2 replica subprocess workers + coordinator front.

    Replicas matter: ``assign_replicas`` deals URL ``i`` to partition
    ``i % 2``, so spawning workers over paths ``[p0, p1, p0, p1]``
    yields two independent processes per partition — one can be
    SIGKILLed while its sibling keeps the partition answerable.
    """
    from repro.coord import (
        Coordinator,
        LocalWorkerFleet,
        PartitionPlan,
        assign_replicas,
        materialize_partitions,
    )
    from repro.service import IndexRegistry, ServiceConfig, ServiceMetrics, start_server
    from repro.store import SegmentedSearcher, build_store

    root = tmp_path_factory.mktemp("coord-faults")
    store = build_store(
        workload_a.references,
        root / "store",
        space_config=HDSpaceConfig(
            dim=512, num_bins=binning.num_bins, num_levels=8, seed=13
        ),
        binning=binning,
        segment_rows=13,
    )
    with SegmentedSearcher(store) as searcher:
        result = searcher.search(workload_a.queries)
    baseline = {psm.query_id: psm for psm in result.psms}

    plan = PartitionPlan.build(store, 2, "rows")
    paths = materialize_partitions(store, plan)
    fleet = LocalWorkerFleet(
        [paths[0], paths[1], paths[0], paths[1]], workers=0
    )
    coordinator = None
    registry = None
    front = None
    front_thread = None
    try:
        urls = fleet.wait_ready()
        coordinator = Coordinator(
            plan.partitions,
            assign_replicas(urls, len(plan)),
            probe_interval=0.3,
            worker_timeout=30.0,
        )
        coordinator.wait_ready(timeout=60)
        # Served the way `repro coordinate` serves it.
        registry = IndexRegistry(
            coordinator,
            config=ServiceConfig(cache_capacity=0, max_inflight=32),
            metrics=ServiceMetrics(coordinator.metrics.registry),
        )
        front = start_server(registry)
        front_thread = threading.Thread(
            target=front.serve_forever, daemon=True
        )
        front_thread.start()
        host, port = front.server_address[:2]
        yield f"http://{host}:{port}", fleet, coordinator, baseline
    finally:
        if front is not None:
            front.shutdown()
            front.server_close()
        if front_thread is not None:
            front_thread.join(timeout=10)
        if registry is not None:
            registry.close()
        if coordinator is not None:
            coordinator.close()
        fleet.close()
        store.close()


class TestKillWorkerMidStorm:
    NUM_THREADS = 6
    ROUNDS = 4

    def test_sigkill_mid_storm_never_hangs_or_corrupts(
        self, coordinated_fleet, workload_a
    ):
        from repro.service import ServiceError

        url, fleet, coordinator, baseline = coordinated_fleet
        queries = workload_a.queries
        expected = [baseline.get(q.identifier) for q in queries]
        outcomes = []  # (kind, detail) per request, appended under lock
        lock = threading.Lock()
        barrier = threading.Barrier(self.NUM_THREADS + 1)

        def storm(slot):
            client = SearchClient(url, timeout=120)
            barrier.wait()
            for _ in range(self.ROUNDS):
                try:
                    psms = client.search_batch(queries)
                except ServiceError as error:
                    # A clean, labelled failure is acceptable while the
                    # fleet is degraded -- silent corruption is not.
                    with lock:
                        outcomes.append(("error", error.status))
                    continue
                ok = psms == expected
                with lock:
                    outcomes.append(("result", ok))

        threads = [
            threading.Thread(target=storm, args=(slot,))
            for slot in range(self.NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        time.sleep(0.1)  # let the storm get requests in flight
        fleet.workers[0].process.kill()  # SIGKILL a partition-0 replica
        for thread in threads:
            thread.join(timeout=180)
            assert not thread.is_alive(), "request hung across SIGKILL"

        assert len(outcomes) == self.NUM_THREADS * self.ROUNDS
        for kind, detail in outcomes:
            if kind == "result":
                assert detail, "batch diverged from single-node baseline"
            else:
                assert detail == 503, f"unclean failure status {detail}"
        # The surviving replica should have absorbed nearly everything.
        correct = sum(1 for kind, ok in outcomes if kind == "result" and ok)
        assert correct >= self.NUM_THREADS * self.ROUNDS - self.NUM_THREADS

        # The fleet self-heals: probes mark the dead replica unhealthy,
        # the sibling keeps partition 0 answerable, /healthz recovers.
        client = SearchClient(url, timeout=120)
        deadline = time.time() + 30
        health = None
        while time.time() < deadline:
            try:
                health = client.healthz()
                if health["status"] == "ok":
                    break
            except ServiceError:
                pass
            time.sleep(0.2)
        assert health is not None and health["status"] == "ok"

        # Post-storm, answers are exact again and the wire metrics
        # recorded the carnage.
        assert client.search_batch(queries) == expected
        samples, _types = parse_prometheus(client.metrics())
        errors = sum(
            value
            for (name, _labels), value in samples.items()
            if name == "hdoms_coord_worker_errors_total"
        )
        assert errors >= 1
        stats = client.stats()
        dead_url = fleet.workers[0].url
        flags = {
            worker["url"]: worker["healthy"]
            for partition in stats["partitions"]
            for worker in partition["workers"]
        }
        assert flags[dead_url] is False
        healthy_count = sum(1 for healthy in flags.values() if healthy)
        assert healthy_count == 3
