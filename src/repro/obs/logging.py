"""Structured logging setup shared by the CLI and the service.

Every module in :mod:`repro` logs through a standard
``logging.getLogger(__name__)`` module logger; this module owns the
*handler* side: one stream handler on the ``"repro"`` package logger,
formatted either as human-readable text or as one JSON object per line
(:class:`JsonFormatter`), selected by the ``--log-format {text,json}``
CLI flag.

:func:`setup_logging` is idempotent — it replaces any handler it
previously installed instead of stacking duplicates — and deliberately
leaves the root logger alone so embedding applications keep full
control.  :func:`ensure_default_logging` is the soft variant used by
library entry points (``serve()``): it installs the text handler only
when neither the ``repro`` logger nor the root logger has one, so a
host application's configuration always wins.
"""

from __future__ import annotations

import json
import logging
import sys
import time
import traceback
from typing import Optional, TextIO

__all__ = [
    "JsonFormatter",
    "setup_logging",
    "ensure_default_logging",
    "LOG_LEVELS",
    "LOG_FORMATS",
]

#: CLI-facing level names accepted by :func:`setup_logging`.
LOG_LEVELS = ("debug", "info", "warning", "error")

#: CLI-facing output formats accepted by :func:`setup_logging`.
LOG_FORMATS = ("text", "json")

TEXT_FORMAT = "%(asctime)s %(levelname)s %(name)s: %(message)s"

#: ``LogRecord`` attributes that are plumbing, not user-supplied extras.
_RESERVED = frozenset(
    {
        "args",
        "asctime",
        "created",
        "exc_info",
        "exc_text",
        "filename",
        "funcName",
        "levelname",
        "levelno",
        "lineno",
        "message",
        "module",
        "msecs",
        "msg",
        "name",
        "pathname",
        "process",
        "processName",
        "relativeCreated",
        "stack_info",
        "taskName",
        "thread",
        "threadName",
    }
)


class JsonFormatter(logging.Formatter):
    """One JSON object per log line: ``ts``/``level``/``logger``/``message``.

    Anything passed via ``extra={...}`` (e.g. the slow-query log's
    structured record) is merged into the object as long as it is
    JSON-serialisable; non-serialisable values fall back to ``repr``.
    Exceptions are rendered into an ``exc`` field as a traceback string.
    """

    def format(self, record: logging.LogRecord) -> str:
        """Render ``record`` as a single-line JSON document."""
        payload = {
            "ts": round(record.created, 6),
            "time": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.localtime(record.created)
            ),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key in payload:
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            payload[key] = value
        if record.exc_info:
            payload["exc"] = "".join(
                traceback.format_exception(*record.exc_info)
            ).rstrip()
        return json.dumps(payload)


class _StderrHandler(logging.StreamHandler):
    """A stream handler on ``sys.stderr`` as it is at each emit, not at setup."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> TextIO:
        return sys.stderr


def _resolve_level(level: str) -> int:
    try:
        return getattr(logging, str(level).upper())
    except AttributeError:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LOG_LEVELS}"
        ) from None


def setup_logging(
    level: str = "info",
    fmt: str = "text",
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Install (or replace) the package log handler; returns the logger.

    Args:
        level: One of :data:`LOG_LEVELS` (case-insensitive).
        fmt: ``"text"`` for classic single-line records, ``"json"`` for
            one JSON object per line.
        stream: Target stream; by default whatever ``sys.stderr`` is
            when a record is emitted (one swapped in and closed by an
            in-process CLI run does not swallow later records), so
            stdout stays clean for command output (TSV/JSONL streams).

    Returns:
        The configured ``"repro"`` package logger.

    Raises:
        ValueError: On an unknown level or format name.
    """
    if fmt not in LOG_FORMATS:
        raise ValueError(
            f"unknown log format {fmt!r}; expected one of {LOG_FORMATS}"
        )
    resolved = _resolve_level(level)
    handler = _StderrHandler() if stream is None else logging.StreamHandler(stream)
    handler.setFormatter(
        JsonFormatter() if fmt == "json" else logging.Formatter(TEXT_FORMAT)
    )
    handler._repro_managed = True  # type: ignore[attr-defined]
    logger = logging.getLogger("repro")
    for existing in list(logger.handlers):
        if getattr(existing, "_repro_managed", False):
            logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.setLevel(resolved)
    # Our handler is authoritative for the package: propagating further
    # would double-print every record once the root logger also has a
    # handler (basicConfig in a host application).
    logger.propagate = False
    return logger


def ensure_default_logging(level: str = "info") -> logging.Logger:
    """Install the text handler only if nobody configured logging yet.

    Library entry points (``serve()``) call this so their operational
    messages are visible by default, without clobbering an embedding
    application's existing configuration — if either the ``repro``
    logger or the root logger already has handlers, nothing changes.
    """
    logger = logging.getLogger("repro")
    if logger.handlers or logging.getLogger().handlers:
        return logger
    return setup_logging(level=level)
