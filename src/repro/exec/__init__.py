"""Encode/score stage overlap (`repro.exec`).

:func:`~repro.exec.pipeline.pipeline_map` is the two-deep bounded queue
that overlaps encoding of micro-batch ``k+1`` with scoring of
micro-batch ``k``.  Parts themselves are scored in-process, serially or
on the fan-out core's thread pool (:mod:`repro.oms.loop`), over the
searcher's own packed rows — nothing is copied between processes.

See ``docs/performance.md`` for tuning guidance.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "pipeline": ["PIPELINE_DEPTH", "pipeline_map"],
    },
)
