"""Unified engine-construction configuration.

The knobs that control *how* a searcher executes — shard count, worker
pool, executor kind, similarity backend, score-block tiling, pipeline
batching, and the ANN prefilter — accreted independently onto
:class:`~repro.index.sharded.ShardedSearcher`,
:class:`~repro.service.server.ServiceConfig`, and three separate CLI
flag groups, drifting a little with every addition.
:class:`EngineConfig` is now the single source of truth: every entry
point accepts one (the ``engine=`` keyword on the searchers, the
``engine_config`` field on :class:`~repro.service.server.ServiceConfig`,
the shared flag group built by :func:`repro.cli.add_engine_args`), the
legacy kwargs keep working behind :class:`DeprecationWarning` shims,
and the service reports the fully resolved config under
``/stats``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .ann import AnnConfig

#: The engine families a config can request.  ``auto`` defers the
#: choice to the consumer (the service picks ``batched`` for trivially
#: serial configs, ``segmented`` for manifest-backed stores, and
#: ``sharded`` otherwise).
ENGINE_KINDS = ("auto", "batched", "sharded", "segmented")

#: The supported parallel execution modes.
EXECUTOR_KINDS = ("process", "thread")


@dataclass(frozen=True)
class EngineConfig:
    """How to build and drive a search engine.

    Attributes:
        kind: Engine family — one of :data:`ENGINE_KINDS`.  ``auto``
            lets the consumer pick.
        backend: ``"dense"``, ``"packed"``, or a picklable
            zero-argument factory returning a
            :class:`~repro.oms.search.SimilarityBackend`.
        num_shards: Contiguous row partitions per index (each becomes
            one scoring task per query micro-batch).
        num_workers: Worker count; ``None`` auto-sizes to
            ``min(num_shards, cpu_count)``, ``0`` scores serially
            in-process (as does a sharded engine that resolves to one
            worker).
        executor: ``"process"`` or ``"thread"`` (ignored when
            ``num_workers == 0``; segmented searchers always score
            in-process and treat ``"process"`` as ``"thread"``).
        score_block_rows: Rows per scoring block for backends that
            tile (``None`` = auto-size, ``0`` = untiled).  Never
            changes results.
        pipeline_batch: Queries per encode micro-batch; ``None`` uses
            :data:`~repro.oms.search.ENCODE_BLOCK_SIZE`.
        ann: Optional :class:`~repro.ann.AnnConfig` enabling the
            Hamming-LSH candidate prefilter.
    """

    kind: str = "auto"
    backend: Union[str, Callable] = "dense"
    num_shards: int = 1
    num_workers: Optional[int] = 0
    executor: str = "process"
    score_block_rows: Optional[int] = None
    pipeline_batch: Optional[int] = None
    ann: Optional[AnnConfig] = None

    def __post_init__(self) -> None:
        if self.kind not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine kind {self.kind!r}; expected one of {ENGINE_KINDS}"
            )
        if not callable(self.backend) and self.backend not in ("dense", "packed"):
            raise ValueError(
                f"unknown backend {self.backend!r}; expected 'dense', 'packed', "
                "or a backend factory"
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
        if self.score_block_rows is not None and self.score_block_rows < 0:
            raise ValueError(
                f"score_block_rows must be >= 0 or None, got {self.score_block_rows}"
            )
        if self.pipeline_batch is not None and self.pipeline_batch < 1:
            raise ValueError(
                f"pipeline_batch must be >= 1, got {self.pipeline_batch}"
            )

    @property
    def backend_label(self) -> str:
        """Human-readable backend name (factories report ``__name__``)."""
        if isinstance(self.backend, str):
            return self.backend
        return getattr(self.backend, "__name__", "custom")

    def replace(self, **changes) -> "EngineConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-safe view of the fully resolved config (for ``/stats``)."""
        return {
            "kind": self.kind,
            "backend": self.backend_label,
            "num_shards": self.num_shards,
            "num_workers": self.num_workers,
            "executor": self.executor,
            "score_block_rows": self.score_block_rows,
            "pipeline_batch": self.pipeline_batch,
            "ann": dataclasses.asdict(self.ann) if self.ann is not None else None,
        }

    def build_backend(self):
        """Instantiate the similarity backend this config names.

        Applies ``score_block_rows`` when the backend supports tiling.
        Imported lazily to keep :mod:`repro.engine` dependency-free at
        import time.
        """
        from .exec.scorer import resolve_backend

        backend = resolve_backend(self.backend)()
        if self.score_block_rows is not None and hasattr(backend, "set_block_rows"):
            backend.set_block_rows(self.score_block_rows)
        return backend
