"""Unit tests for the zero-dependency observability layer (repro.obs).

Covers the tracer (nesting, inheritance, the disabled fast path, the
ring buffer, listeners, cross-thread emits), the Chrome trace export,
the slow-query log, the structured logging setup, and the profile
summary helpers.
"""

import io
import json
import logging
import sys
import threading

import pytest

from repro.obs import (
    DEFAULT_CAPACITY,
    JsonFormatter,
    NULL_SPAN,
    SlowQueryLog,
    Tracer,
    chrome_trace,
    ensure_default_logging,
    get_tracer,
    new_request_id,
    render_stage_table,
    setup_logging,
    spans_to_events,
    stage_breakdown,
    summarize_spans,
)


@pytest.fixture
def tracer():
    """A fresh, enabled, private tracer (the global one stays untouched)."""
    return Tracer(capacity=64).enable()


# ----------------------------------------------------------------------
# spans and nesting
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_sets_parent_ids(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert [s.name for s in tracer.records()] == ["inner", "middle", "outer"]

    def test_request_id_and_route_inherit_from_parent(self, tracer):
        with tracer.span("root", request_id="req-1", route="yeast"):
            with tracer.span("child") as child:
                with tracer.span("grandchild", route="override") as grandchild:
                    pass
        assert child.request_id == "req-1"
        assert child.route == "yeast"
        assert grandchild.request_id == "req-1"
        assert grandchild.route == "override"

    def test_sibling_spans_share_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_duration_is_positive_and_tags_chain(self, tracer):
        with tracer.span("timed", batch=8).tag(extra=True) as span:
            span.tag(late=1)
        assert span.duration > 0.0
        assert span.tags == {"batch": 8, "extra": True, "late": 1}

    def test_exception_tags_error_and_propagates(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing") as span:
                raise ValueError("boom")
        assert span.tags["error"] == "ValueError: boom"
        assert tracer.records()[-1] is span

    def test_to_dict_shape(self, tracer):
        with tracer.span("s", request_id="r", route="rt", k=1) as span:
            pass
        data = span.to_dict()
        assert data["name"] == "s"
        assert data["request_id"] == "r"
        assert data["route"] == "rt"
        assert data["tags"] == {"k": 1}
        assert data["duration_ms"] >= 0.0
        assert data["thread"] == threading.current_thread().name


class TestDisabledTracer:
    def test_disabled_span_is_the_shared_null_singleton(self):
        tracer = Tracer()
        assert tracer.span("anything", batch=4) is NULL_SPAN
        assert tracer.span("other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN.tag(a=1) as span:
            assert span is NULL_SPAN
        assert NULL_SPAN.tags == {}
        assert NULL_SPAN.duration == 0.0

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert tracer.emit("b", duration=0.5) is None
        assert tracer.capture() is None
        assert tracer.records() == []

    def test_reenable_records_again(self, tracer):
        tracer.disable()
        with tracer.span("lost"):
            pass
        tracer.enable()
        with tracer.span("kept"):
            pass
        assert [s.name for s in tracer.records()] == ["kept"]


class TestTracerBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)
        with pytest.raises(ValueError, match="capacity"):
            Tracer().enable(capacity=-1)

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3).enable()
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.records()] == ["s2", "s3", "s4"]
        assert tracer.capacity == 3

    def test_enable_with_new_capacity_clears(self, tracer):
        with tracer.span("old"):
            pass
        tracer.enable(capacity=8)
        assert tracer.records() == []
        assert tracer.capacity == 8

    def test_clear_resets_epoch(self, tracer):
        with tracer.span("s"):
            pass
        before = tracer.epoch
        tracer.clear()
        assert tracer.records() == []
        assert tracer.epoch >= before

    def test_global_tracer_is_a_shared_disabled_singleton(self):
        assert get_tracer() is get_tracer()
        assert get_tracer().capacity == DEFAULT_CAPACITY


class TestEmitAndCapture:
    def test_emit_records_external_duration(self, tracer):
        span = tracer.emit(
            "queue_wait", duration=0.25, route="r", reason="timeout"
        )
        assert span.duration == 0.25
        assert span.tags == {"reason": "timeout"}
        assert tracer.records() == [span]

    def test_emit_parents_on_captured_span_across_threads(self, tracer):
        with tracer.span("handler", request_id="req-9") as handler:
            ctx = tracer.capture()
        assert ctx is handler
        result = {}

        def flusher():
            result["span"] = tracer.emit("wait", duration=0.01, parent=ctx)

        thread = threading.Thread(target=flusher)
        thread.start()
        thread.join()
        assert result["span"].parent_id == handler.span_id
        assert result["span"].request_id == "req-9"

    def test_emit_virtual_thread_lane(self, tracer):
        span = tracer.emit("shard.score", duration=0.01, thread="shard-3")
        assert span.thread == "shard-3"

    def test_current_request_id(self, tracer):
        assert tracer.current_request_id() is None
        with tracer.span("root", request_id="req-2"):
            with tracer.span("child"):
                assert tracer.current_request_id() == "req-2"

    def test_spans_for_while_other_threads_record(self, tracer):
        # A server's slow log reads one request's spans while its other
        # handler threads keep finishing spans into the same buffer.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        stop = threading.Event()

        def record():
            while not stop.is_set():
                tracer.emit("shard.score", duration=0.0, request_id="other")

        writers = [threading.Thread(target=record) for _ in range(4)]
        for writer in writers:
            writer.start()
        try:
            for _ in range(2000):
                tracer.spans_for("req-1")
        finally:
            stop.set()
            for writer in writers:
                writer.join()
            sys.setswitchinterval(switch_interval)


class TestListeners:
    def test_listener_sees_finished_spans(self, tracer):
        seen = []
        tracer.add_listener(seen.append)
        with tracer.span("a"):
            pass
        assert [s.name for s in seen] == ["a"]

    def test_add_listener_is_idempotent(self, tracer):
        seen = []
        tracer.add_listener(seen.append)
        tracer.add_listener(seen.append)
        with tracer.span("a"):
            pass
        assert len(seen) == 1

    def test_listener_exceptions_are_swallowed(self, tracer):
        def bad(span):
            raise RuntimeError("listener bug")

        tracer.add_listener(bad)
        with tracer.span("survives"):
            pass
        assert tracer.records()[-1].name == "survives"

    def test_remove_listener(self, tracer):
        seen = []
        tracer.add_listener(seen.append)
        tracer.remove_listener(seen.append)
        tracer.remove_listener(seen.append)  # second remove is a no-op
        with tracer.span("a"):
            pass
        assert seen == []


class TestQueries:
    def test_spans_for_filters_by_request(self, tracer):
        with tracer.span("a", request_id="r1"):
            pass
        with tracer.span("b", request_id="r2"):
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.spans_for("r2")] == ["c", "b"]

    def test_stage_durations_sums_by_name(self, tracer):
        tracer.emit("x", duration=0.1)
        tracer.emit("x", duration=0.2)
        tracer.emit("y", duration=0.5)
        stages = tracer.stage_durations(tracer.records())
        assert stages["x"] == pytest.approx(0.3)
        assert stages["y"] == pytest.approx(0.5)

    def test_new_request_id_shape(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)
        assert all(int(i, 16) >= 0 for i in ids)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


class TestChromeTrace:
    def test_events_have_lanes_and_microsecond_times(self, tracer):
        with tracer.span("root", request_id="req-1", route="rt", batch=2):
            pass
        tracer.emit("shard.score", duration=0.002, thread="shard-0")
        events = spans_to_events(tracer.records(), epoch=tracer.epoch)
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {
            threading.current_thread().name,
            "shard-0",
        }
        assert len(complete) == 2
        root = next(e for e in complete if e["name"] == "root")
        assert root["args"]["request_id"] == "req-1"
        assert root["args"]["route"] == "rt"
        assert root["args"]["batch"] == 2
        assert root["dur"] == pytest.approx(
            1e6 * tracer.records()[0].duration, abs=0.01
        )
        # Metadata lanes must agree with the events that use them.
        lanes = {e["tid"]: e["args"]["name"] for e in meta}
        for event in complete:
            assert event["tid"] in lanes

    def test_chrome_trace_payload_is_json_ready(self, tracer):
        with tracer.span("a", request_id="r1"):
            pass
        payload = chrome_trace(tracer)
        parsed = json.loads(json.dumps(payload))
        assert parsed["displayTimeUnit"] == "ms"
        assert parsed["metadata"]["spans"] == 1
        names = [e["name"] for e in parsed["traceEvents"] if e["ph"] == "X"]
        assert names == ["a"]

    def test_chrome_trace_request_filter(self, tracer):
        with tracer.span("mine", request_id="r1"):
            pass
        with tracer.span("other", request_id="r2"):
            pass
        payload = chrome_trace(tracer, request_id="r1")
        names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
        assert names == ["mine"]

    def test_empty_tracer_exports_empty_event_list(self):
        payload = chrome_trace(Tracer())
        assert payload["traceEvents"] == []
        assert payload["metadata"]["enabled"] is False


# ----------------------------------------------------------------------
# slow-query log
# ----------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=100.0, capacity=8)
        assert log.observe(50.0, request_id="fast") is False
        assert log.observe(150.0, request_id="slow") is True
        snapshot = log.snapshot()
        assert snapshot["observed"] == 2
        assert snapshot["slow"] == 1
        assert [r["request_id"] for r in snapshot["records"]] == ["slow"]

    def test_zero_threshold_records_everything(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=4)
        assert log.observe(0.0) is True

    def test_snapshot_is_newest_first_and_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=2)
        for i in range(4):
            log.observe(float(i), request_id=f"r{i}")
        snapshot = log.snapshot()
        assert [r["request_id"] for r in snapshot["records"]] == ["r3", "r2"]
        assert snapshot["observed"] == 4
        assert len(log) == 2

    def test_record_carries_stages_and_extras(self):
        log = SlowQueryLog(threshold_ms=0.0)
        log.observe(
            12.5,
            request_id="r1",
            route="yeast",
            endpoint="search",
            cached=False,
            stages={"encode.batch": 0.004, "score.dense": 0.006},
            spectra=3,
        )
        record = log.snapshot()["records"][0]
        assert record["duration_ms"] == 12.5
        assert record["cached"] is False
        assert record["spectra"] == 3
        assert record["stages_ms"] == {
            "encode.batch": 4.0,
            "score.dense": 6.0,
        }

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold_ms"):
            SlowQueryLog(threshold_ms=-1.0)
        with pytest.raises(ValueError, match="capacity"):
            SlowQueryLog(capacity=0)

    def test_clear_keeps_counters(self):
        log = SlowQueryLog(threshold_ms=0.0)
        log.observe(1.0)
        log.clear()
        snapshot = log.snapshot()
        assert snapshot["records"] == []
        assert snapshot["observed"] == 1

    def test_stage_breakdown_sums_spans(self, tracer):
        tracer.emit("encode.batch", duration=0.1)
        tracer.emit("encode.batch", duration=0.2)
        tracer.emit("score.dense", duration=0.4)
        stages = stage_breakdown(tracer.records())
        assert stages["encode.batch"] == pytest.approx(0.3)
        assert stages["score.dense"] == pytest.approx(0.4)


# ----------------------------------------------------------------------
# logging setup
# ----------------------------------------------------------------------


@pytest.fixture
def clean_repro_logger():
    """Snapshot and restore the package logger around handler tests."""
    logger = logging.getLogger("repro")
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield logger
    logger.handlers[:] = saved[0]
    logger.setLevel(saved[1])
    logger.propagate = saved[2]


class TestLoggingSetup:
    def test_setup_replaces_instead_of_stacking(self, clean_repro_logger):
        setup_logging(level="info", fmt="text")
        setup_logging(level="debug", fmt="json")
        managed = [
            h
            for h in clean_repro_logger.handlers
            if getattr(h, "_repro_managed", False)
        ]
        assert len(managed) == 1
        assert clean_repro_logger.level == logging.DEBUG
        assert clean_repro_logger.propagate is False

    def test_setup_rejects_unknown_level_and_format(self):
        with pytest.raises(ValueError, match="log level"):
            setup_logging(level="loud")
        with pytest.raises(ValueError, match="log format"):
            setup_logging(fmt="xml")

    def test_json_lines_carry_extras_and_exceptions(self, clean_repro_logger):
        stream = io.StringIO()
        logger = setup_logging(level="info", fmt="json", stream=stream)
        logger.info("hello %s", "world", extra={"request_id": "r1"})
        try:
            raise RuntimeError("kaput")
        except RuntimeError:
            logger.exception("failed")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0]["message"] == "hello world"
        assert lines[0]["level"] == "INFO"
        assert lines[0]["logger"] == "repro"
        assert lines[0]["request_id"] == "r1"
        assert "RuntimeError: kaput" in lines[1]["exc"]

    def test_json_formatter_tolerates_unserialisable_extras(self):
        record = logging.LogRecord(
            "repro.t", logging.INFO, __file__, 1, "msg", (), None
        )
        record.payload = object()
        parsed = json.loads(JsonFormatter().format(record))
        assert parsed["message"] == "msg"
        assert parsed["payload"].startswith("<object object")

    def test_ensure_default_is_a_noop_when_configured(self, clean_repro_logger):
        # pytest installs root handlers, so the soft path must not touch
        # the package logger.
        assert logging.getLogger().handlers
        before = list(clean_repro_logger.handlers)
        ensure_default_logging()
        assert clean_repro_logger.handlers == before


# ----------------------------------------------------------------------
# profile summaries
# ----------------------------------------------------------------------


class TestProfileSummary:
    def test_summarize_orders_by_total_and_aggregates(self, tracer):
        tracer.emit("encode", duration=0.010)
        tracer.emit("encode", duration=0.030)
        tracer.emit("score", duration=0.100)
        rows = summarize_spans(tracer.records())
        assert [row["name"] for row in rows] == ["score", "encode"]
        encode = rows[1]
        assert encode["count"] == 2
        assert encode["total_ms"] == pytest.approx(40.0)
        assert encode["mean_ms"] == pytest.approx(20.0)
        assert encode["max_ms"] == pytest.approx(30.0)

    def test_render_stage_table(self, tracer):
        tracer.emit("encode.batch", duration=0.010)
        table = render_stage_table(summarize_spans(tracer.records()))
        lines = table.splitlines()
        assert lines[0].split() == ["stage", "count", "total_ms", "mean_ms", "max_ms"]
        assert "encode.batch" in lines[2]

    def test_render_empty(self):
        assert render_stage_table([]) == "(no spans recorded)"
