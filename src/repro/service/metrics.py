"""Lock-safe Prometheus-style metrics for the search service.

A scraper needs monotonic counters and bucketed histograms in the
`Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_.  This
module provides the three pieces the service needs and nothing more:

* :class:`Counter` and :class:`Histogram` — labelled metric families,
  each guarded by its own lock (they are leaf locks: no metric ever
  calls back into service code, so they cannot participate in a lock
  cycle);
* :class:`MetricsRegistry` — owns the families and renders the full
  ``/metrics`` payload;
* :class:`ServiceMetrics` / :class:`RouteMetrics` — the concrete
  instrumentation schema of the search service (per-route request
  and admission-rejection counters, cache hit/miss, micro-batch size
  and wait histograms, request latency histograms), with :meth:`ServiceMetrics.for_route`
  handing each route a pre-bound view so hot-path call sites never
  build label dicts.

These families are the service's only tally: the JSON ``/stats``
sections are a view of them (:meth:`RouteMetrics.stats`), so the two
endpoints cannot disagree.

Everything here is stdlib-only and dependency-free on purpose: the
service must export metrics without requiring ``prometheus_client``.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.trace import Span, Tracer

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Tracer span names bridged into the per-stage latency histogram,
#: mapped to their ``stage`` label.  Spans must carry a ``route`` to be
#: exported (pipeline spans inherit it from the service root span).
STAGE_SPANS: Dict[str, str] = {
    "service.cache_lookup": "cache_lookup",
    "scheduler.queue_wait": "queue_wait",
    "scheduler.batch": "batch",
    "engine.search": "engine",
    "encode.batch": "encode",
    "ann.prefilter": "ann_prefilter",
    "score.rerank": "score_rerank",
    "score.window": "score_window",
    "shard.fanout": "shard_fanout",
    "shard.score": "shard_score",
    "service.serialize": "serialize",
}

#: Default latency-style buckets (seconds), Prometheus' classic ladder.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Buckets for micro-batch sizes (spectra per batch, at most ``MAX_BATCH``).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32)

#: Buckets for the ANN candidate ratio (scored rows / window rows) —
#: 0.01 means the prefilter cut 99% of the exact-scoring work.
RATIO_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    parts = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + parts + "}"


class _Metric:
    """Shared plumbing of one labelled metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_PATTERN.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        # Exactly the declared names: as many labels, each one present.
        try:
            if len(labels) == len(self.labelnames):
                return tuple([str(labels[name]) for name in self.labelnames])
        except KeyError:
            pass
        raise ValueError(
            f"{self.name} expects labels {self.labelnames}, "
            f"got {tuple(sorted(labels))}"
        )

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> List[str]:  # pragma: no cover - overridden
        """Render the exposition lines (implemented by subclasses)."""
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the labelled child."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._add(self._key(labels), amount)

    def _add(self, key: Tuple[str, ...], amount: float) -> None:
        """:meth:`inc` of an already-validated label key (the hot paths)."""
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of the labelled child."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> List[str]:
        """Render the counter in Prometheus text format."""
        with self._lock:
            items = sorted(self._values.items())
        lines = self._header()
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` bisects the bucket bounds under a plain lock.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        if list(buckets) != sorted(set(buckets)):
            raise ValueError(f"buckets must be strictly increasing: {buckets}")
        if any(math.isinf(b) for b in buckets):
            raise ValueError("+Inf bucket is implicit; do not pass it")
        self.buckets = buckets
        # Per labelset: [per-bucket counts..., overflow count], sum.
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled histogram."""
        self._observe(self._key(labels), value)

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        """:meth:`observe` of an already-validated label key (the hot paths)."""
        value = float(value)
        # The first bucket with value <= bound; NaN, like anything above
        # the last bound, lands in the overflow slot.
        slot = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[slot] += 1
            self._sums[key] += value

    def snapshot(self, **labels: str) -> Dict[str, float]:
        """``{count, sum}`` for one labelset (absent -> zeros)."""
        key = self._key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                return {"count": 0, "sum": 0.0}
            return {"count": sum(counts), "sum": self._sums[key]}

    def render(self) -> List[str]:
        """Render the histogram in Prometheus text format."""
        with self._lock:
            items = sorted(
                (key, list(counts), self._sums[key])
                for key, counts in self._counts.items()
            )
        lines = self._header()
        bucket_labelnames = self.labelnames + ("le",)
        for key, counts, total in items:
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                labels = _render_labels(
                    bucket_labelnames, key + (_format_bound(bound),)
                )
                lines.append(
                    f"{self.name}_bucket{labels} {_format_value(cumulative)}"
                )
            cumulative += counts[-1]
            labels = _render_labels(bucket_labelnames, key + ("+Inf",))
            lines.append(
                f"{self.name}_bucket{labels} {_format_value(cumulative)}"
            )
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {repr(float(total))}")
            lines.append(
                f"{self.name}_count{plain} {_format_value(cumulative)}"
            )
        return lines


def _format_bound(bound: float) -> str:
    """``le`` label value: trim integral bounds to Prometheus style."""
    if float(bound).is_integer():
        return f"{bound:.1f}"
    return repr(float(bound))


class MetricsRegistry:
    """Ordered collection of metric families behind one ``render()``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: List[_Metric] = []

    def register(self, metric: _Metric) -> _Metric:
        """Register ``metric`` and return it."""
        with self._lock:
            if any(m.name == metric.name for m in self._metrics):
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics.append(metric)
        return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Create, register, and return a labelled counter."""
        return self.register(Counter(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        """Create, register, and return a labelled histogram."""
        return self.register(Histogram(name, help, labelnames, buckets))

    def __iter__(self) -> Iterable[_Metric]:
        with self._lock:
            return iter(list(self._metrics))

    def render(self) -> str:
        """The full Prometheus text payload (trailing newline included)."""
        with self._lock:
            metrics = list(self._metrics)
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


class ServiceMetrics:
    """The search service's metric schema, shared across routes.

    One instance backs one ``/metrics`` endpoint; every route of an
    :class:`~repro.service.registry.IndexRegistry` observes into the
    same families with its own ``route`` label, so adding or removing a
    route never re-registers anything.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        self.requests = self.registry.counter(
            "hdoms_service_requests_total",
            "Search requests received, by route and endpoint.",
            ("route", "endpoint"),
        )
        self.rejected = self.registry.counter(
            "hdoms_service_rejected_total",
            "Requests the admission gate answered 429 (max_inflight), "
            "by route and endpoint.",
            ("route", "endpoint"),
        )
        self.cache_lookups = self.registry.counter(
            "hdoms_service_cache_lookups_total",
            "Result-cache lookups, by route and outcome (hit/miss).",
            ("route", "outcome"),
        )
        self.cache_evictions = self.registry.counter(
            "hdoms_service_cache_evictions_total",
            "Result-cache LRU evictions, by route.",
            ("route",),
        )
        self.reloads = self.registry.counter(
            "hdoms_service_reloads_total",
            "Index hot-swaps, by route.",
            ("route",),
        )
        self.batch_size = self.registry.histogram(
            "hdoms_service_batch_size_spectra",
            "Spectra per micro-batch, by route.",
            ("route",),
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.batch_wait = self.registry.histogram(
            "hdoms_service_batch_wait_seconds",
            "Queue wait of each micro-batched spectrum, by route.",
            ("route",),
        )
        self.latency = self.registry.histogram(
            "hdoms_service_request_latency_seconds",
            "End-to-end request latency (cache hits included), by route.",
            ("route",),
        )
        self.ann_queries = self.registry.counter(
            "hdoms_service_ann_queries_total",
            "ANN prefilter decisions, by route and outcome "
            "(bypass/prefiltered).",
            ("route", "outcome"),
        )
        self.ann_window_rows = self.registry.counter(
            "hdoms_service_ann_window_rows_total",
            "Precursor-window rows a brute-force search would have "
            "scored, by route.",
            ("route",),
        )
        self.ann_scored_rows = self.registry.counter(
            "hdoms_service_ann_scored_rows_total",
            "Rows actually scored after the ANN prefilter, by route.",
            ("route",),
        )
        self.ann_candidate_ratio = self.registry.histogram(
            "hdoms_service_ann_candidate_ratio",
            "Per-batch scored/window row ratio after the ANN prefilter, "
            "by route (1.0 = no pruning).",
            ("route",),
            buckets=RATIO_BUCKETS,
        )
        self.stage_seconds = self.registry.histogram(
            "hdoms_service_stage_seconds",
            "Per-stage pipeline latency from tracer spans, by route and "
            "stage (see repro.obs).",
            ("route", "stage"),
        )
        # Bound methods are fresh objects per attribute access; keep one
        # stable reference so attach/detach stay idempotent even when
        # several routes share this instance.
        self._listener = self.span_listener

    def for_route(self, route: str) -> "RouteMetrics":
        """A pre-bound per-route view (see :class:`RouteMetrics`)."""
        return RouteMetrics(self, route)

    def span_listener(self, span: Span) -> None:
        """Finished-span hook feeding :data:`STAGE_SPANS` histograms.

        Spans without a route (CLI runs, bare engine usage) and spans
        outside the stage mapping are skipped — the listener only
        exports pipeline stages the service can attribute to a route.
        """
        stage = STAGE_SPANS.get(span.name)
        if stage is None or span.route is None:
            return
        self.stage_seconds._observe((str(span.route), stage), span.duration)

    def attach(self, tracer: Tracer) -> None:
        """Bridge ``tracer``'s finished spans into the stage histogram."""
        tracer.add_listener(self._listener)

    def detach(self, tracer: Tracer) -> None:
        """Remove the bridge installed by :meth:`attach`."""
        tracer.remove_listener(self._listener)

    def render(self) -> str:
        """The full Prometheus text payload for ``/metrics``."""
        return self.registry.render()


class RouteMetrics:
    """One route's pre-bound view onto :class:`ServiceMetrics`.

    The methods line up with the service's observation points (see the
    hooks in ``server.py``, ``cache.py``, ``scheduler.py``), so hot
    paths call e.g. ``metrics.observe_request("search")`` without
    touching label plumbing: the per-request observations go straight
    in under label keys whose names the families declare.
    """

    def __init__(self, parent: ServiceMetrics, route: str) -> None:
        self.parent = parent
        self.route = route
        self._key = (str(route),)

    def observe_request(self, endpoint: str) -> None:
        """Count one request to ``endpoint``."""
        self.parent.requests._add(self._key + (endpoint,), 1.0)

    def observe_rejected(self, endpoint: str) -> None:
        """Count one request to ``endpoint`` turned away by the admission gate."""
        self.parent.rejected._add(self._key + (endpoint,), 1.0)

    def observe_latency(self, seconds: float) -> None:
        """Record one end-to-end request latency."""
        self.parent.latency._observe(self._key, seconds)

    def observe_reload(self) -> None:
        """Count one successful engine reload."""
        self.parent.reloads.inc(route=self.route)

    def cache_event(self, event: str) -> None:
        """`ResultCache` observer hook: hit / miss / eviction."""
        if event == "eviction":
            self.parent.cache_evictions._add(self._key, 1.0)
        else:
            self.parent.cache_lookups._add(self._key + (event,), 1.0)

    def observe_batch(self, waits: Sequence[float]) -> None:
        """`MicroBatchScheduler` observer hook: one batch, each spectrum's queue wait."""
        self.parent.batch_size._observe(self._key, len(waits))
        for wait in waits:
            self.parent.batch_wait._observe(self._key, wait)

    def observe_ann(self, delta: Dict[str, int]) -> None:
        """Record one batch's ANN counter increments.

        ``delta`` uses the :meth:`~repro.ann.AnnStats.snapshot` keys
        (``bypassed`` / ``prefiltered`` / ``window_rows`` /
        ``scored_rows``); the candidate-ratio histogram gets one
        sample per batch that touched at least one window row.
        """
        for key, outcome in (("bypassed", "bypass"), ("prefiltered", "prefiltered")):
            count = delta.get(key, 0)
            if count > 0:
                self.parent.ann_queries.inc(
                    count, route=self.route, outcome=outcome
                )
        window_rows = delta.get("window_rows", 0)
        scored_rows = delta.get("scored_rows", 0)
        if window_rows > 0:
            self.parent.ann_window_rows.inc(window_rows, route=self.route)
            self.parent.ann_candidate_ratio.observe(
                scored_rows / window_rows, route=self.route
            )
        if scored_rows > 0:
            self.parent.ann_scored_rows.inc(scored_rows, route=self.route)

    def stats(self) -> Dict[str, Dict[str, object]]:
        """This route's ``/stats`` sections, read from the families above.

        The sections are ``requests``, ``latency``, ``cache`` and
        ``scheduler``; the caller adds what is live (cache size, queue
        depth).  Views of the shared families persist across a route's
        remove and re-add, as ``/metrics`` does.
        """
        parent, route = self.parent, self.route
        requests = {
            endpoint: int(parent.requests.value(route=route, endpoint=endpoint))
            for endpoint in ("search", "search_batch", "score")
        }
        requests["reloads"] = int(parent.reloads.value(route=route))
        latency = parent.latency.snapshot(route=route)
        hits = int(parent.cache_lookups.value(route=route, outcome="hit"))
        misses = int(parent.cache_lookups.value(route=route, outcome="miss"))
        sizes = parent.batch_size.snapshot(route=route)
        waits = parent.batch_wait.snapshot(route=route)
        return {
            "requests": requests,
            "latency": {
                "count": latency["count"],
                "total_ms": round(1000.0 * latency["sum"], 3),
                "mean_ms": round(1000.0 * latency["sum"] / latency["count"], 3)
                if latency["count"]
                else None,
            },
            "cache": {
                "hits": hits,
                "misses": misses,
                "evictions": int(parent.cache_evictions.value(route=route)),
                "hit_rate": hits / (hits + misses) if hits + misses else None,
            },
            "scheduler": {  # an empty histogram's sum is 0, so its means read 0.0
                "batches": sizes["count"],
                "mean_batch_size": sizes["sum"] / max(sizes["count"], 1),
                "mean_queue_wait_ms": 1000.0 * waits["sum"] / max(waits["count"], 1),
            },
        }
