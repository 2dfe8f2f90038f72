"""Chrome ``trace_event`` JSON export of recorded spans.

Renders a :class:`~repro.obs.trace.Tracer`'s ring buffer into the
`trace event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
understood by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_:

* every span becomes one complete (``"ph": "X"``) event with
  microsecond ``ts``/``dur`` relative to the tracer's recording epoch;
* spans are laid out on one *lane* (``tid``) per originating thread —
  including the virtual ``shard-N`` lanes the fan-out core emits
  for per-part scoring timings — with ``"M"`` metadata events naming each
  lane (a span records its thread's ident; the name is looked up here,
  once per export, and a thread that has exited reads ``thread-<ident>``);
* tags, request id, route, and span/parent ids ride in ``args`` so
  selecting an event in the viewer shows the full context.

The output is a plain dict; ``json.dumps`` it to produce a file the
viewer opens directly (this is what ``/debug/trace`` and
``repro profile`` serve/write).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .trace import Span, Tracer, lane_name, thread_names

__all__ = ["chrome_trace", "spans_to_events"]

#: Single-process traces all share one pid.
_PID = 1


def spans_to_events(
    spans: Iterable[Span], epoch: float = 0.0
) -> List[Dict[str, object]]:
    """Convert spans into trace-event dicts (metadata lanes included).

    Args:
        spans: Finished spans (any order; output keeps input order).
        epoch: ``perf_counter`` origin subtracted from every start so
            timestamps begin near zero.

    Returns:
        A list of Chrome trace events: one ``"M"`` (``thread_name``)
        event per distinct lane followed by one ``"X"`` event per span.
    """
    names = thread_names()
    lanes: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    metadata: List[Dict[str, object]] = []
    for span in spans:
        lane = lane_name(span.lane, names)
        tid = lanes.get(lane)
        if tid is None:
            tid = len(lanes) + 1
            lanes[lane] = tid
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        args: Dict[str, object] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if span.request_id is not None:
            args["request_id"] = span.request_id
        if span.route is not None:
            args["route"] = span.route
        args.update(span.tags)
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "ts": round(1e6 * (span.start - epoch), 3),
                "dur": round(1e6 * span.duration, 3),
                "args": args,
            }
        )
    return metadata + events


def chrome_trace(
    tracer: Tracer, request_id: Optional[str] = None
) -> Dict[str, object]:
    """The full Chrome trace payload for a tracer's recorded spans.

    Args:
        tracer: The tracer whose ring buffer to export.
        request_id: Optional filter — keep only spans of one request.

    Returns:
        ``{"traceEvents": [...], "displayTimeUnit": "ms", "metadata": ...}``,
        ready for ``json.dumps``.  ``traceEvents`` is empty (never
        absent) for a disabled or freshly-cleared tracer, so consumers
        can always parse the same shape.
    """
    spans = (
        tracer.spans_for(request_id) if request_id is not None else tracer.records()
    )
    return {
        "traceEvents": spans_to_events(spans, epoch=tracer.epoch),
        "displayTimeUnit": "ms",
        "metadata": {
            "enabled": tracer.enabled,
            "capacity": tracer.capacity,
            "spans": len(spans),
            "epoch_unix_seconds": tracer.epoch_wall,
        },
    }
