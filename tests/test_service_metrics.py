"""Tests for repro.service.metrics and the /metrics endpoint.

Includes a small Prometheus text-format parser/validator
(:func:`parse_prometheus`) that the concurrency suite reuses to
reconcile server-side counters with client-observed tallies.
"""

import re
import threading

import pytest

from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.service import (
    Counter,
    Histogram,
    MetricsRegistry,
    SearchClient,
    SearchService,
    ServiceConfig,
    ServiceMetrics,
    start_server,
)

_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    # A left-to-right scanner, not chained str.replace: the input
    # "backslash backslash n" must decode to "backslash n", never to
    # "backslash newline".
    return re.sub(
        r"\\(.)",
        lambda match: {"n": "\n"}.get(match.group(1), match.group(1)),
        value,
    )


def parse_prometheus(text):
    """Parse Prometheus text format into ``(samples, types)``.

    ``samples`` maps ``(metric_name, (sorted (label, value) pairs))`` to
    the float sample value; ``types`` maps family name to its declared
    type.  Raises AssertionError on malformed lines, duplicate samples,
    or samples without a declared family — i.e. parsing *is* the
    validity check.
    """
    samples = {}
    types = {}
    helps = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name not in helps, f"duplicate HELP for {name}"
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name not in types, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram", "summary")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name, label_blob, raw_value = match.groups()
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert family in types or name in types, (
            f"sample {name!r} has no TYPE declaration"
        )
        labels = tuple(
            sorted(
                (key, _unescape(value))
                for key, value in _LABEL.findall(label_blob or "")
            )
        )
        value = float("inf") if raw_value == "+Inf" else float(raw_value)
        key = (name, labels)
        assert key not in samples, f"duplicate sample {key}"
        samples[key] = value
    return samples, types


def sample_value(samples, /, *args, **labels):
    """The sample for a metric with exactly these labels (0.0 absent).

    Positional-only plumbing so any label name — including ``name`` —
    stays usable as a keyword.
    """
    (metric,) = args
    key = (metric, tuple(sorted(labels.items())))
    return samples.get(key, 0.0)


def assert_histograms_consistent(samples, types):
    """Every histogram: buckets cumulative, +Inf bucket == _count."""
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series = {}
        for (name, labels), value in samples.items():
            if name == f"{family}_bucket":
                plain = tuple(kv for kv in labels if kv[0] != "le")
                le = dict(labels)["le"]
                bound = float("inf") if le == "+Inf" else float(le)
                series.setdefault(plain, []).append((bound, value))
        for plain, buckets in series.items():
            buckets.sort()
            counts = [count for _bound, count in buckets]
            assert counts == sorted(counts), (
                f"{family}{plain}: buckets not cumulative: {counts}"
            )
            assert buckets[-1][0] == float("inf")
            total = sample_value(samples, f"{family}_count", **dict(plain))
            assert buckets[-1][1] == total, (
                f"{family}{plain}: +Inf bucket != _count"
            )


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help", ("route",))
        counter.inc(route="a")
        counter.inc(2.5, route="a")
        counter.inc(route="b")
        assert counter.value(route="a") == 3.5
        assert counter.value(route="b") == 1
        assert counter.value(route="absent") == 0

    def test_rejects_negative_increment(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_rejects_wrong_labels(self):
        counter = Counter("c_total", "help", ("route",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc(endpoint="x")
        with pytest.raises(ValueError, match="expects labels"):
            counter.inc()

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="metric name"):
            Counter("0bad", "help")
        with pytest.raises(ValueError, match="label name"):
            Counter("ok_total", "help", ("bad-label",))
        with pytest.raises(ValueError, match="label name"):
            Counter("ok_total", "help", ("__reserved",))

    def test_render(self):
        counter = Counter("c_total", "requests", ("route",))
        counter.inc(3, route="a")
        lines = counter.render()
        assert lines[0] == "# HELP c_total requests"
        assert lines[1] == "# TYPE c_total counter"
        assert 'c_total{route="a"} 3' in lines

    def test_render_escapes_label_values(self):
        counter = Counter("c_total", "help", ("name",))
        counter.inc(name='we"ird\\nam\ne')
        (line,) = [
            line for line in counter.render() if not line.startswith("#")
        ]
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        samples, _types = parse_prometheus("\n".join(counter.render()))
        assert sample_value(samples, "c_total", name='we"ird\\nam\ne') == 1

    def test_unlabelled_counter_renders_bare_name(self):
        counter = Counter("c_total", "help")
        counter.inc()
        assert "c_total 1" in counter.render()


class TestHistogram:
    def test_observe_buckets_boundaries(self):
        histogram = Histogram("h", "help", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 99.0):
            histogram.observe(value)
        samples, types = parse_prometheus("\n".join(histogram.render()))
        assert types["h"] == "histogram"
        assert sample_value(samples, "h_bucket", le="1.0") == 2  # <= 1.0
        assert sample_value(samples, "h_bucket", le="2.0") == 4
        assert sample_value(samples, "h_bucket", le="+Inf") == 5
        assert sample_value(samples, "h_count") == 5
        assert sample_value(samples, "h_sum") == pytest.approx(104.0)

    def test_snapshot(self):
        histogram = Histogram("h", "help", ("route",), buckets=(1.0,))
        assert histogram.snapshot(route="a") == {"count": 0, "sum": 0.0}
        histogram.observe(0.5, route="a")
        histogram.observe(3.0, route="a")
        assert histogram.snapshot(route="a") == {"count": 2, "sum": 3.5}

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", "help", buckets=())
        with pytest.raises(ValueError, match="increasing"):
            Histogram("h", "help", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            Histogram("h", "help", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="implicit"):
            Histogram("h", "help", buckets=(1.0, float("inf")))

    def test_render_is_valid_and_cumulative(self):
        histogram = Histogram("h", "help", ("route",))
        for route in ("a", "b"):
            for value in (0.002, 0.03, 7.0, 100.0):
                histogram.observe(value, route=route)
        samples, types = parse_prometheus("\n".join(histogram.render()))
        assert_histograms_consistent(samples, types)

    def test_concurrent_observers_lose_nothing(self):
        histogram = Histogram("h", "help", buckets=(0.5,))
        threads = [
            threading.Thread(
                target=lambda: [histogram.observe(0.1) for _ in range(500)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.snapshot()["count"] == 4000


class TestMetricsRegistry:
    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("c_total", "help")

    def test_render_concatenates_families(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "help a").inc()
        registry.histogram("b_seconds", "help b", buckets=(1.0,)).observe(0.5)
        text = registry.render()
        assert text.endswith("\n")
        samples, types = parse_prometheus(text)
        assert types == {"a_total": "counter", "b_seconds": "histogram"}
        assert sample_value(samples, "a_total") == 1


class TestServiceMetrics:
    def test_routes_share_families(self):
        metrics = ServiceMetrics()
        metrics.for_route("a").observe_request("search")
        metrics.for_route("b").observe_request("search")
        samples, types = parse_prometheus(metrics.render())
        assert_histograms_consistent(samples, types)
        name = "hdoms_service_requests_total"
        assert sample_value(samples, name, route="a", endpoint="search") == 1
        assert sample_value(samples, name, route="b", endpoint="search") == 1
        # One family, declared once, however many routes observe it.
        assert metrics.render().count(f"# TYPE {name} ") == 1

    def test_observe_batch_records_each_spectrum_wait(self):
        metrics = ServiceMetrics()
        route = metrics.for_route("a")
        route.observe_batch([0.1, 0.2, 0.3, 0.4])
        route.observe_batch([1.0])
        assert metrics.batch_size.snapshot(route="a") == {"count": 2, "sum": 5.0}
        assert metrics.batch_wait.snapshot(route="a") == {
            "count": 5,
            "sum": pytest.approx(2.0),
        }
        # /stats' spectrum-weighted mean wait: 2.0 s over 5 spectra.
        scheduler = route.stats()["scheduler"]
        assert scheduler["batches"] == 2
        assert scheduler["mean_batch_size"] == 2.5
        assert scheduler["mean_queue_wait_ms"] == pytest.approx(400.0)

    def test_cache_event_splits_lookups_and_evictions(self):
        metrics = ServiceMetrics()
        route = metrics.for_route("a")
        route.cache_event("hit")
        route.cache_event("miss")
        route.cache_event("eviction")
        assert metrics.cache_lookups.value(route="a", outcome="hit") == 1
        assert metrics.cache_lookups.value(route="a", outcome="miss") == 1
        assert metrics.cache_evictions.value(route="a") == 1


# ----------------------------------------------------------------------
# /metrics endpoint
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def metrics_index(binning, tmp_path_factory):
    workload = build_workload(
        WorkloadConfig(
            name="metrics-test", num_references=80, num_queries=6, seed=5
        )
    )
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(
            dim=512, num_bins=binning.num_bins, num_levels=8, seed=13
        ),
        binning=binning,
        source="metrics-test",
    )
    path = index.save(tmp_path_factory.mktemp("metrics") / "library.npz")
    return path, workload


class TestMetricsEndpoint:
    @pytest.fixture
    def served(self, metrics_index):
        path, workload = metrics_index
        service = SearchService(path, ServiceConfig())
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield workload, SearchClient(f"http://{host}:{port}")
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()

    def test_metrics_content_type_and_validity(self, served):
        import urllib.request

        workload, client = served
        client.search(workload.queries[0])
        with urllib.request.urlopen(
            client.base_url + "/metrics", timeout=10
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        samples, types = parse_prometheus(text)
        assert_histograms_consistent(samples, types)

    def test_counters_track_requests_and_cache(self, served):
        workload, client = served
        query = workload.queries[0]
        client.search(query)
        client.search(query)  # second one is a cache hit
        client.search_batch(workload.queries[:3])
        samples, _types = parse_prometheus(client.metrics())
        requests = "hdoms_service_requests_total"
        lookups = "hdoms_service_cache_lookups_total"
        assert sample_value(
            samples, requests, route="default", endpoint="search"
        ) == 2
        assert sample_value(
            samples, requests, route="default", endpoint="search_batch"
        ) == 1
        # 2 single lookups + 3 batch lookups; exactly 2 hits (the
        # repeated single + the batch's re-encounter of query 0).
        assert (
            sample_value(samples, lookups, route="default", outcome="hit")
            + sample_value(samples, lookups, route="default", outcome="miss")
            == 5
        )
        latency = "hdoms_service_request_latency_seconds_count"
        assert sample_value(samples, latency, route="default") == 3

    def test_batch_histograms_populate(self, served):
        workload, client = served
        client.search_batch(workload.queries[:4])
        samples, types = parse_prometheus(client.metrics())
        assert_histograms_consistent(samples, types)
        size = "hdoms_service_batch_size_spectra_count"
        assert sample_value(samples, size, route="default") >= 1
