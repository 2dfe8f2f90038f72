"""Encode/score stage overlap (`repro.exec`).

:func:`~repro.exec.pipeline.pipeline_map` is the two-deep bounded queue
that overlaps encoding of micro-batch ``k+1`` with scoring of
micro-batch ``k``.  Parts themselves are scored in-process, serially or
on the fan-out core's thread pool (:mod:`repro.oms.loop`), over the
searcher's own packed rows — nothing is copied between processes.

See ``docs/performance.md`` for tuning guidance.
"""

from .pipeline import PIPELINE_DEPTH, pipeline_map

__all__ = ["PIPELINE_DEPTH", "pipeline_map"]
