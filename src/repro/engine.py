"""Unified engine-construction configuration.

The knobs that control *how* a searcher executes — shard count, scoring
threads, pipeline batching, and the ANN prefilter — live in one place.
:class:`EngineConfig` is the single way to name them: every entry point
accepts one (the ``engine=`` keyword on the searchers, the
``engine_config`` field on :class:`~repro.service.server.ServiceConfig`,
the shared flag group built by :func:`repro.cli.add_engine_args`), none
has per-knob arguments of its own, and the service reports the fully
resolved config under ``/stats``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .ann import AnnConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .oms.candidates import HDSearchConfig

#: The engine families a config can request.  ``auto`` defers the
#: choice to the consumer (``segmented`` for manifest-backed stores,
#: ``sharded`` for monolithic indexes).
ENGINE_KINDS = ("auto", "sharded", "segmented")

#: The values :attr:`EngineConfig.executor` accepts.  Both name the one
#: in-process mode; see that field.
EXECUTOR_KINDS = ("process", "thread")


@dataclass(frozen=True)
class EngineConfig:
    """How to build and drive a search engine.

    Attributes:
        kind: Engine family — one of :data:`ENGINE_KINDS`.  ``auto``
            lets the consumer pick.
        num_shards: Contiguous row partitions per index (each becomes
            one scoring task per query micro-batch).
        num_workers: Scoring-thread count; ``None`` auto-sizes to
            ``min(num_shards, cpu_count)``, ``0`` scores serially in the
            calling thread (as does an engine that resolves to one
            worker).
        executor: Validated but inert: ``"thread"`` and ``"process"``
            both score in-process on the fan-out core's threads (any
            other value is rejected).  It survives only because the
            layer harness (``bench/layers.py``) still constructs
            ``executor="process"`` engines for its ``exec.process_*``
            rungs; the benchmark change that retires those rungs
            deletes this field too.
        pipeline_batch: Queries per encode micro-batch; ``None`` uses
            :data:`~repro.oms.candidates.ENCODE_BLOCK_SIZE`.
        ann: Optional :class:`~repro.ann.AnnConfig` enabling the
            truncated-precision candidate pass.
    """

    kind: str = "auto"
    num_shards: int = 1
    num_workers: Optional[int] = 0
    executor: str = "thread"
    pipeline_batch: Optional[int] = None
    ann: Optional[AnnConfig] = None

    def __post_init__(self) -> None:
        if self.kind not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine kind {self.kind!r}; expected one of {ENGINE_KINDS}"
            )
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.num_workers is not None and self.num_workers < 0:
            raise ValueError(
                f"num_workers must be >= 0 or None, got {self.num_workers}"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTOR_KINDS}"
            )
        if self.pipeline_batch is not None and self.pipeline_batch < 1:
            raise ValueError(
                f"pipeline_batch must be >= 1, got {self.pipeline_batch}"
            )

    def replace(self, **changes) -> "EngineConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-safe view of the fully resolved config (for ``/stats``)."""
        return {
            "kind": self.kind,
            "num_shards": self.num_shards,
            "num_workers": self.num_workers,
            "executor": self.executor,
            "pipeline_batch": self.pipeline_batch,
            "ann": dataclasses.asdict(self.ann) if self.ann is not None else None,
        }

    def search_config(
        self, config: Optional["HDSearchConfig"] = None
    ) -> "HDSearchConfig":
        """``config`` (default: a fresh one) with this engine's ``ann`` folded in.

        Raises:
            ValueError: When both carry an ANN config and they disagree.
        """
        if config is None:
            # Lazy: repro.engine stays dependency-free at import time.
            from .oms.candidates import HDSearchConfig

            config = HDSearchConfig()
        if self.ann is None or self.ann == config.ann:
            return config
        if config.ann is not None:
            raise ValueError(
                "conflicting ANN configs: engine.ann disagrees with config.ann"
            )
        return dataclasses.replace(config, ann=self.ann)
