"""Observability: span tracing, profiling, slow-query log, logging.

The scaling work on the ROADMAP (threaded kernels, scale-out tier)
needs to know *where* a query's time goes; ``repro.obs`` is the
zero-dependency layer every later performance PR is measured with:

* :mod:`repro.obs.trace` — nested :class:`Span`\\ s with request-id
  propagation and a near-zero-cost disabled path, recorded by the
  process-global :func:`get_tracer`;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON rendering
  (``/debug/trace``, ``repro profile``) for ``about:tracing``/Perfetto;
* :mod:`repro.obs.slowlog` — ring-buffer slow-query log behind
  ``/debug/slow`` plus structured log lines;
* :mod:`repro.obs.logging` — ``--log-level`` / ``--log-format
  {text,json}`` handler setup shared by the CLI and ``serve()``;
* :mod:`repro.obs.profile` — per-stage aggregation for the
  ``repro profile`` command.

See ``docs/observability.md`` for the tracing model and how the
service endpoints fit together.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "export": ["chrome_trace", "spans_to_events"],
        "logging": [
            "JsonFormatter",
            "LOG_FORMATS",
            "LOG_LEVELS",
            "ensure_default_logging",
            "setup_logging",
        ],
        "profile": ["render_stage_table", "summarize_spans"],
        "slowlog": [
            "DEFAULT_SLOW_CAPACITY",
            "DEFAULT_SLOW_MS",
            "SlowQueryLog",
            "stage_breakdown",
        ],
        "trace": [
            "DEFAULT_CAPACITY",
            "NULL_SPAN",
            "Span",
            "Tracer",
            "get_tracer",
            "new_request_id",
        ],
    },
)
