"""Multi-index routing tests (repro.service.registry + HTTP layer).

Routing correctness: the same spectrum searched on two routes backed by
different libraries yields different PSMs, each bit-identical to a
direct searcher run on that route's index; unknown routes are 404s;
omitted routes fall back to the default; and per-route caches are
isolated (a hit on route A never serves route B).  Also covers live
registry mutation — /reload add / swap / remove of one route — and the
``repro serve --index NAME=PATH`` flag parsing.
"""

import threading
from pathlib import Path

import pytest

from repro.cli import _parse_index_routes
from repro.hdc.spaces import HDSpaceConfig
from repro.index import IndexCompatibilityError, LibraryIndex
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.oms.search import HDOmsSearcher
from repro.service import (
    IndexRegistry,
    ProtocolError,
    SearchClient,
    SearchService,
    ServiceConfig,
    ServiceError,
    UnknownRouteError,
    route_from_payload,
    start_server,
    validate_route_name,
)
from repro.service.protocol import UnavailableError
from repro.service.registry import DEFAULT_ROUTE, normalize_index_sources

from test_service import submit_queued


@pytest.fixture(scope="module")
def workload_a(binning):
    return build_workload(
        WorkloadConfig(
            name="route-a", num_references=120, num_queries=20, seed=7
        )
    )


@pytest.fixture(scope="module")
def workload_b(binning):
    return build_workload(
        WorkloadConfig(
            name="route-b", num_references=140, num_queries=20, seed=21
        )
    )


def _build_index(workload, binning, source):
    return LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(
            dim=512, num_bins=binning.num_bins, num_levels=8, seed=13
        ),
        binning=binning,
        source=source,
    )


@pytest.fixture(scope="module")
def index_a(workload_a, binning):
    return _build_index(workload_a, binning, "route-a")


@pytest.fixture(scope="module")
def index_b(workload_b, binning):
    return _build_index(workload_b, binning, "route-b")


@pytest.fixture(scope="module")
def path_a(index_a, tmp_path_factory):
    return index_a.save(tmp_path_factory.mktemp("routing") / "a.npz")


@pytest.fixture(scope="module")
def path_b(index_b, tmp_path_factory):
    return index_b.save(tmp_path_factory.mktemp("routing") / "b.npz")


@pytest.fixture(scope="module")
def baseline_a(index_a, workload_a):
    """Route-a truth: index A searched with workload A's queries."""
    result = HDOmsSearcher.from_index(index_a).search(workload_a.queries)
    return {psm.query_id: psm for psm in result.psms}


@pytest.fixture(scope="module")
def baseline_b(index_b, workload_a):
    """Route-b truth for the *same* queries, against index B."""
    result = HDOmsSearcher.from_index(index_b).search(workload_a.queries)
    return {psm.query_id: psm for psm in result.psms}


def make_registry(path_a, path_b, **config_overrides):
    return IndexRegistry(
        {"alpha": path_a, "beta": path_b},
        default_route="alpha",
        config=ServiceConfig(**config_overrides),
    )


@pytest.fixture
def registry(path_a, path_b):
    with make_registry(path_a, path_b) as registry:
        yield registry


# ----------------------------------------------------------------------
# route name / spec plumbing
# ----------------------------------------------------------------------


class TestRoutePlumbing:
    @pytest.mark.parametrize("name", ["a", "yeast", "HEK293.tof-2", "0x1"])
    def test_valid_route_names(self, name):
        assert validate_route_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "-lead", ".lead", "sp ace", "a" * 65, 7, None, "a/b"]
    )
    def test_invalid_route_names(self, name):
        with pytest.raises(ProtocolError):
            validate_route_name(name)

    def test_route_from_payload(self):
        assert route_from_payload({"route": "yeast"}) == "yeast"
        assert route_from_payload({}) is None
        assert route_from_payload({"route": None}) is None
        assert route_from_payload("not a dict") is None
        with pytest.raises(ProtocolError):
            route_from_payload({"route": "bad name"})

    def test_normalize_bare_path_becomes_default_route(self, path_a):
        assert normalize_index_sources(path_a) == {DEFAULT_ROUTE: path_a}

    def test_normalize_rejects_empty_and_duplicates(self, path_a):
        with pytest.raises(ValueError):
            normalize_index_sources({})
        with pytest.raises(ValueError):
            normalize_index_sources([("a", path_a), ("a", path_a)])


class TestServeFlagParsing:
    def test_single_bare_path(self):
        routes = _parse_index_routes(["lib.npz"])
        assert routes == {"default": Path("lib.npz")}

    def test_named_routes(self):
        routes = _parse_index_routes(["yeast=y.npz", "human=h.npz"])
        assert sorted(routes) == ["human", "yeast"]
        assert str(routes["yeast"]) == "y.npz"

    def test_multiple_bare_paths_rejected(self):
        with pytest.raises(ValueError, match="route name"):
            _parse_index_routes(["a.npz", "b.npz"])

    def test_mixed_bare_and_named_rejected(self):
        with pytest.raises(ValueError, match="route name"):
            _parse_index_routes(["yeast=y.npz", "b.npz"])

    def test_duplicate_route_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _parse_index_routes(["a=x.npz", "a=y.npz"])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty path"):
            _parse_index_routes(["a="])

    def test_bare_path_containing_equals_stays_a_path(self):
        # "./results" is not route-shaped, so the whole entry is a path
        # (the pre-multi-index behaviour for any previously valid path).
        routes = _parse_index_routes(["./results=final/lib.npz"])
        assert routes == {"default": Path("./results=final/lib.npz")}

    def test_route_shaped_prefix_wins_over_path_reading(self):
        routes = _parse_index_routes(["v2=run/library.npz"])
        assert routes == {"v2": Path("run/library.npz")}


# ----------------------------------------------------------------------
# registry behaviour (no HTTP)
# ----------------------------------------------------------------------


class TestIndexRegistry:
    def test_default_route_resolution(self, registry):
        assert registry.get() is registry.get("alpha")
        assert registry.get("beta") is not registry.get("alpha")
        assert registry.default_route == "alpha"
        assert registry.route_names() == ["alpha", "beta"]
        assert "beta" in registry and "gamma" not in registry
        assert len(registry) == 2

    def test_unknown_route_raises(self, registry):
        with pytest.raises(UnknownRouteError, match="gamma"):
            registry.get("gamma")

    def test_bad_default_route_rejected(self, path_a):
        with pytest.raises(ValueError, match="default route"):
            IndexRegistry({"alpha": path_a}, default_route="nope")

    def test_bad_route_name_rejected(self, path_a):
        with pytest.raises(ProtocolError):
            IndexRegistry({"bad name": path_a})

    def test_failed_construction_closes_partial_services(
        self, path_a, tmp_path, monkeypatch
    ):
        # Route "alpha" loads fine; "beta" fails.  The already-built
        # alpha service (engine and its scoring pool) must be closed,
        # not leaked, or retrying construction accumulates live threads.
        closed = []
        original_close = SearchService.close

        def recording_close(self, timeout=None):
            closed.append(self.route)
            return original_close(self, timeout=timeout)

        monkeypatch.setattr(SearchService, "close", recording_close)
        before = threading.active_count()
        with pytest.raises(IndexCompatibilityError, match="missing.npz"):
            IndexRegistry(
                {"alpha": path_a, "beta": tmp_path / "missing.npz"}
            )
        assert closed == ["alpha"]
        assert threading.active_count() <= before

    def test_bad_default_route_closes_built_services(
        self, path_a, path_b, monkeypatch
    ):
        # Validation failing *after* the services were built must not
        # leak their engines either.
        closed = []
        original_close = SearchService.close

        def recording_close(self, timeout=None):
            closed.append(self.route)
            return original_close(self, timeout=timeout)

        monkeypatch.setattr(SearchService, "close", recording_close)
        with pytest.raises(ValueError, match="default route"):
            IndexRegistry(
                {"alpha": path_a, "beta": path_b}, default_route="typo"
            )
        assert sorted(closed) == ["alpha", "beta"]

    def test_concurrent_close_callers_both_wait(self, path_a, path_b, workload_a):
        # Neither caller may return while the other is still draining:
        # serve()'s main thread reports "drained and closed" on return.
        # Each route holds a request in a parked engine and one queued
        # behind it; both must be answered before either close returns.
        registry = make_registry(path_a, path_b)
        services = [registry.get(name) for name in registry.route_names()]
        release = threading.Event()
        answered = []
        futures = []
        for service in services:

            def parked(batch, real_search=service._engine.search_aligned):
                assert release.wait(10)
                results = real_search(batch)
                answered.append(len(batch))
                return results

            service._engine.search_aligned = parked
            futures += submit_queued(service.scheduler, workload_a.queries[:2])
        drained_at_return = []

        def closer():
            registry.close()
            drained_at_return.append(sum(answered))

        closers = [threading.Thread(target=closer) for _ in range(2)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=0.2)
        assert drained_at_return == []  # both wait for the parked engines
        release.set()
        for thread in closers:
            thread.join(timeout=30)
        assert drained_at_return == [4, 4]
        for future in futures:
            assert future.result(timeout=5) is not None

    def test_from_service_wraps_single_route(self, path_a):
        service = SearchService(path_a, ServiceConfig())
        try:
            registry = IndexRegistry.from_service(service)
            assert registry.get() is service
            assert registry.metrics is service.metrics
            assert registry.route_names() == [service.route]
        finally:
            service.close()

    def test_close_added_routes_keeps_adopted_service(self, path_a, path_b):
        service = SearchService(path_a, ServiceConfig())
        try:
            registry = IndexRegistry.from_service(service)
            added = registry.reload_route("extra", path_b)
            registry.close_added_routes()
            # The hot-added route drained and closed...
            with pytest.raises(UnavailableError, match="closed"):
                added.scheduler.run_many([])
            assert added._closed
            # ...but the adopted service stays live for its owner.
            assert not service._closed
            assert service.scheduler.run_many([]) == []
        finally:
            service.close()

    def test_server_close_reaps_hot_added_routes(
        self, path_a, path_b, workload_a
    ):
        # Back-compat single-service server: routes added over /reload
        # live only in the implicit registry; server_close must drain
        # and close them (nobody else has a handle).
        service = SearchService(path_a, ServiceConfig())
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = SearchClient(f"http://{host}:{port}")
        try:
            client.reload(path_b, route="hot")
            client.search(workload_a.queries[0], route="hot")
            added = server.registry.get("hot")
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            assert added._closed
            with pytest.raises(UnavailableError, match="closed"):
                added.scheduler.run_many([])
            assert not service._closed  # still the caller's to close
        finally:
            service.close()

    def test_request_to_a_closed_route_is_unavailable(self, path_a, workload_a):
        # A /search that resolved its route just before /reload removed
        # (and closed) it meets a closed service: a 503 the client may
        # retry, not a 500 "internal error".
        service = SearchService(path_a, ServiceConfig())
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = SearchClient(f"http://{host}:{port}")
        try:
            service.close()
            with pytest.raises(UnavailableError, match="closed"):
                service.search_one(workload_a.queries[0])
            with pytest.raises(ServiceError, match="closed") as raised:
                client.search(workload_a.queries[0])
            assert raised.value.status == 503
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_routes_share_one_metrics_registry(self, registry):
        assert registry.get("alpha").metrics is registry.get("beta").metrics
        assert registry.get("alpha").metrics is registry.metrics

    def test_same_spectrum_two_routes_different_psms(
        self, registry, workload_a, baseline_a, baseline_b
    ):
        differing = 0
        for query in workload_a.queries:
            psm_a = registry.get("alpha").search_one(query)
            psm_b = registry.get("beta").search_one(query)
            assert psm_a == baseline_a.get(query.identifier)
            assert psm_b == baseline_b.get(query.identifier)
            if psm_a is not None and psm_b is not None and psm_a != psm_b:
                assert psm_a.reference_id.startswith("route-a")
                assert psm_b.reference_id.startswith("route-b")
                differing += 1
        # The two libraries are disjoint: routing actually matters.
        assert differing > 0

    def test_per_route_cache_isolation(self, registry, workload_a, baseline_b):
        query = workload_a.queries[0]
        alpha = registry.get("alpha")
        beta = registry.get("beta")
        _first, cached = alpha.search_one_detailed(query)
        assert not cached
        _second, cached = alpha.search_one_detailed(query)
        assert cached  # warm on alpha...
        psm_b, cached = beta.search_one_detailed(query)
        assert not cached  # ...but never pre-warms beta
        assert psm_b == baseline_b.get(query.identifier)
        assert alpha.stats()["cache"]["hits"] == 1
        assert beta.stats()["cache"]["hits"] == 0

    def test_reload_one_route_keeps_others_hot(self, registry, workload_a):
        query = workload_a.queries[0]
        beta = registry.get("beta")
        beta.search_one(query)
        registry.reload_route("alpha")
        # Beta's cache survived alpha's swap (reload clears only alpha).
        _psm, cached = beta.search_one_detailed(query)
        assert cached
        assert registry.get("alpha")._generation == 1
        assert beta._generation == 0

    def test_reload_route_in_place_returns_same_service(self, registry):
        service = registry.get("alpha")
        assert registry.reload_route("alpha") is service

    def test_reload_unknown_route_without_index_raises(self, registry):
        with pytest.raises(UnknownRouteError):
            registry.reload_route("gamma")

    def test_reload_adds_new_route(
        self, registry, path_b, workload_a, baseline_b
    ):
        added = registry.reload_route("gamma", path_b)
        assert registry.get("gamma") is added
        assert "gamma" in registry.route_names()
        query = workload_a.queries[1]
        assert added.search_one(query) == baseline_b.get(query.identifier)

    def test_remove_route(self, registry):
        registry.reload_route("gamma", registry.get("beta").index_path)
        registry.remove_route("gamma")
        assert "gamma" not in registry
        with pytest.raises(UnknownRouteError):
            registry.get("gamma")

    def test_remove_default_route_rejected(self, registry):
        with pytest.raises(ValueError, match="default"):
            registry.remove_route("alpha")
        assert "alpha" in registry

    def test_remove_unknown_route_raises(self, registry):
        with pytest.raises(UnknownRouteError):
            registry.remove_route("gamma")

    def test_close_is_idempotent(self, path_a, path_b):
        registry = make_registry(path_a, path_b)
        registry.close()
        registry.close()

    def test_reload_route_after_close_raises(self, registry, path_b):
        registry.close()
        with pytest.raises(RuntimeError, match="closed"):
            registry.reload_route("alpha")
        with pytest.raises(RuntimeError, match="closed"):
            registry.reload_route("late-add", path_b)
        assert "late-add" not in registry

    def test_service_reload_after_close_raises(self, path_a):
        service = SearchService(path_a, ServiceConfig())
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.reload()

    def test_reload_racing_close_aborts_swap(self, path_a, monkeypatch):
        # close() completes while reload() is mid-build (its entry
        # check already passed): the swap must abort and the fresh
        # engine must be released, not installed into a dead service.
        service = SearchService(path_a, ServiceConfig())
        original_build = service._build_engine
        engines = []

        def racing_build(index):
            service.close()  # close wins the race during the build
            built = original_build(index)
            engines.append(built[0])
            return built

        monkeypatch.setattr(service, "_build_engine", racing_build)
        with pytest.raises(RuntimeError, match="closed"):
            service.reload()
        (engine,) = engines
        assert service._engine is not engine  # never installed

    def test_reload_racing_remove_reports_unknown_route(
        self, registry, monkeypatch
    ):
        # remove_route wins the race after reload_route fetched the
        # service: the caller must get "route gone", not a success for
        # a route that is no longer served.
        real_reload = SearchService.reload

        def racing_reload(self, index_path=None):
            registry.remove_route("beta")
            return real_reload(self, index_path)

        monkeypatch.setattr(SearchService, "reload", racing_reload)
        with pytest.raises(UnknownRouteError):
            registry.reload_route("beta")
        assert "beta" not in registry

    def test_healthz_and_stats_aggregate_routes(self, registry, workload_a):
        registry.get("beta").search_one(workload_a.queries[0])
        health = registry.healthz()
        assert health["status"] == "ok"
        assert health["default_route"] == "alpha"
        assert set(health["routes"]) == {"alpha", "beta"}
        # Top level stays back-compatible: it is the default route's view.
        assert health["route"] == "alpha"
        stats = registry.stats()
        assert set(stats["routes"]) == {"alpha", "beta"}
        assert stats["routes"]["beta"]["requests"]["search"] == 1
        assert stats["requests"]["search"] == 0  # alpha untouched


# ----------------------------------------------------------------------
# HTTP routing
# ----------------------------------------------------------------------


@pytest.fixture
def http_registry(path_a, path_b):
    registry = make_registry(path_a, path_b)
    server = start_server(registry)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield registry, SearchClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    registry.close()


class TestHttpRouting:
    def test_route_field_selects_library(
        self, http_registry, workload_a, baseline_a, baseline_b
    ):
        _registry, client = http_registry
        query = workload_a.queries[0]
        assert client.search(query) == baseline_a.get(query.identifier)
        assert client.search(query, route="beta") == baseline_b.get(
            query.identifier
        )
        reply = client.search_detailed(query, route="beta")
        assert reply["route"] == "beta"

    def test_client_route_binding(
        self, http_registry, workload_a, baseline_b
    ):
        _registry, client = http_registry
        beta = client.for_route("beta")
        query = workload_a.queries[2]
        assert beta.search(query) == baseline_b.get(query.identifier)
        assert beta.search_batch([query]) == [
            baseline_b.get(query.identifier)
        ]

    def test_search_batch_route_field(
        self, http_registry, workload_a, baseline_b
    ):
        _registry, client = http_registry
        psms = client.search_batch(workload_a.queries[:5], route="beta")
        assert psms == [
            baseline_b.get(query.identifier)
            for query in workload_a.queries[:5]
        ]

    def test_unknown_route_is_404(self, http_registry, workload_a):
        _registry, client = http_registry
        with pytest.raises(ServiceError) as excinfo:
            client.search(workload_a.queries[0], route="gamma")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.search_batch(workload_a.queries[:2], route="gamma")
        assert excinfo.value.status == 404

    def test_bad_route_name_is_400(self, http_registry, workload_a):
        _registry, client = http_registry
        with pytest.raises(ServiceError) as excinfo:
            client.search(workload_a.queries[0], route="bad route")
        assert excinfo.value.status == 400

    def test_bare_spectrum_with_route_is_400(self, http_registry, workload_a):
        # The legacy unwrapped form cannot carry a route; ignoring it
        # would silently answer from the wrong library.
        from repro.service import spectrum_to_payload

        _registry, client = http_registry
        payload = spectrum_to_payload(workload_a.queries[0])
        payload["route"] = "beta"
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/search", payload)
        assert excinfo.value.status == 400
        assert "wrapped form" in str(excinfo.value)

    def test_healthz_lists_routes(self, http_registry):
        registry, client = http_registry
        health = client.healthz()
        assert set(health["routes"]) == {"alpha", "beta"}
        assert health["default_route"] == "alpha"
        # Top level mirrors the default route; the per-route entries
        # carry each library's own size.
        assert (
            health["num_references"]
            == registry.get("alpha").index.num_references
        )
        assert (
            health["routes"]["beta"]["num_references"]
            == registry.get("beta").index.num_references
        )

    def test_stats_lists_routes(self, http_registry, workload_a):
        _registry, client = http_registry
        client.search(workload_a.queries[0], route="beta")
        stats = client.stats()
        assert stats["routes"]["beta"]["requests"]["search"] == 1

    def test_reload_add_search_remove_cycle(
        self, http_registry, path_b, workload_a, baseline_b
    ):
        _registry, client = http_registry
        reply = client.reload(path_b, route="gamma")
        assert reply["status"] == "ok"
        assert reply["route"] == "gamma"
        assert "gamma" in reply["routes"]
        query = workload_a.queries[0]
        assert client.search(query, route="gamma") == baseline_b.get(
            query.identifier
        )
        reply = client.reload(route="gamma", remove=True)
        assert reply["removed"] == "gamma"
        assert "gamma" not in reply["routes"]
        with pytest.raises(ServiceError) as excinfo:
            client.search(query, route="gamma")
        assert excinfo.value.status == 404

    def test_reload_single_route_over_http(self, http_registry, workload_a):
        registry, client = http_registry
        query = workload_a.queries[0]
        client.search(query, route="beta")
        reply = client.reload(route="alpha")
        assert reply["route"] == "alpha"
        assert registry.get("alpha")._generation == 1
        # Beta kept its cache across alpha's reload.
        assert client.search_detailed(query, route="beta")["cached"] is True

    def test_remove_default_route_is_400(self, http_registry):
        _registry, client = http_registry
        with pytest.raises(ServiceError) as excinfo:
            client.reload(route="alpha", remove=True)
        assert excinfo.value.status == 400

    def test_remove_unknown_route_is_404(self, http_registry):
        _registry, client = http_registry
        with pytest.raises(ServiceError) as excinfo:
            client.reload(route="gamma", remove=True)
        assert excinfo.value.status == 404

    def test_remove_without_route_is_400(self, http_registry):
        _registry, client = http_registry
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/reload", {"remove": True})
        assert excinfo.value.status == 400

    def test_remove_with_index_is_400(self, http_registry, path_b):
        _registry, client = http_registry
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                "/reload",
                {"route": "beta", "remove": True, "index": str(path_b)},
            )
        assert excinfo.value.status == 400

    def test_client_rejects_remove_with_index(self, http_registry, path_b):
        # The client surfaces the contradiction instead of silently
        # dropping the index path and removing the route.
        _registry, client = http_registry
        with pytest.raises(ValueError, match="mutually exclusive"):
            client.reload(path_b, route="beta", remove=True)
        assert "beta" in client.healthz()["routes"]

    def test_non_bool_remove_is_400(self, http_registry):
        _registry, client = http_registry
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/reload", {"route": "beta", "remove": "yes"}
            )
        assert excinfo.value.status == 400
