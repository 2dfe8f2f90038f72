"""Tests for the unified EngineConfig API.

Every engine entry point — :class:`SegmentedSearcher`,
:class:`HDOmsSearcher.from_index`, :class:`BatchedHDOmsSearcher`,
:class:`ServiceConfig` — accepts one :class:`EngineConfig`, and it is
the only way to name an execution knob: the per-entry-point kwargs and
fields it replaced are gone.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.ann import AnnConfig
from repro.engine import EngineConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index.library import LibraryIndex
from repro.store import SegmentedSearcher
from repro.oms import BatchedHDOmsSearcher
from repro.oms.search import HDOmsSearcher, HDSearchConfig
from repro.service.server import ServiceConfig


@pytest.fixture(scope="module")
def index(small_workload, binning):
    return LibraryIndex.build(
        small_workload.references,
        space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=17),
        binning=binning,
    )


@pytest.fixture(scope="module")
def queries(small_workload):
    return small_workload.queries[:8]


def _psm_key(psm):
    return (psm.reference_id, psm.score, psm.is_decoy)


class TestEngineConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "turbo"},
            {"backend": "sparse"},
            {"num_shards": 0},
            {"num_workers": -1},
            {"executor": "fork"},
            {"score_block_rows": -4},
            {"pipeline_batch": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        # The scoring representation and the encode block size are not
        # choices any more: their former fields are unknown keywords,
        # not bad values.
        removed = kwargs.keys() & {"backend", "score_block_rows", "pipeline_batch"}
        with pytest.raises(TypeError if removed else ValueError):
            EngineConfig(**kwargs)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="engine kind"):
            EngineConfig().replace(kind="bogus")

    def test_to_dict_is_json_safe(self):
        config = EngineConfig(ann=AnnConfig())
        payload = config.to_dict()
        assert (payload["kind"], payload["executor"]) == ("auto", "thread")
        assert set(payload) == {
            "kind", "num_shards", "num_workers", "executor", "ann",
        }
        assert isinstance(payload["ann"], dict)

    def test_backend_factories_are_gone(self):
        with pytest.raises(TypeError, match="backend"):
            EngineConfig(backend=lambda: None)
        assert not hasattr(EngineConfig, "build_backend")


class TestShardedSearcherEngine:
    def test_bare_call_is_one_serial_shard(self, index, queries):
        with SegmentedSearcher(index) as searcher:
            assert searcher.engine == EngineConfig()
            assert (searcher.backend_name, searcher.executor_kind) == ("shardedx1", "serial")
            assert len(searcher.search(queries).psms) > 0

    def test_auto_workers_count_only_the_cpus_this_process_may_use(self, index, monkeypatch):
        # `taskset -c 0` on a two-CPU host: cpu_count 2, affinity 1.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        engine = EngineConfig(num_shards=2, num_workers=None)
        for affinity, kind in (({0}, "serial"), ({0, 1}, "thread")):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
            with SegmentedSearcher(index, engine=engine) as searcher:
                assert searcher.executor_kind == kind, affinity

    def test_legacy_kwargs_are_gone(self, index):
        for name in ("num_shards", "num_workers", "backend", "executor",
                     "score_block_rows", "pipeline_batch"):
            with pytest.raises(TypeError, match=name):
                SegmentedSearcher(index, **{name: None})

    def test_engine_ann_folds_into_config(self, index):
        ann = AnnConfig(ann_threshold=1)
        searcher = SegmentedSearcher(index, engine=EngineConfig(ann=ann))
        assert searcher.config.ann == ann
        assert searcher.ann_stats is not None
        searcher.close()

    def test_engine_ann_conflict_rejected(self, index):
        with pytest.raises(ValueError, match="conflicting ANN"):
            SegmentedSearcher(
                index,
                config=HDSearchConfig(ann=AnnConfig(prefix_words=2)),
                engine=EngineConfig(ann=AnnConfig(prefix_words=4)),
            )


class TestFromIndexEngine:
    def test_hd_searcher_accepts_engine(self, index, queries):
        baseline = HDOmsSearcher.from_index(index)
        engined = HDOmsSearcher.from_index(index, engine=EngineConfig())
        # The oracle's arithmetic is its own: an engine config cannot
        # move it off the GEMM.
        assert engined.backend.name == "dense"
        assert [_psm_key(p) for p in engined.search(queries).psms] == [
            _psm_key(p) for p in baseline.search(queries).psms
        ]

    def test_hd_searcher_engine_ann(self, index):
        ann = AnnConfig(ann_threshold=1)
        searcher = HDOmsSearcher.from_index(index, engine=EngineConfig(ann=ann))
        assert searcher.config.ann == ann

    def test_hd_searcher_engine_ann_conflict(self, index):
        with pytest.raises(ValueError, match="conflicting ANN"):
            HDOmsSearcher.from_index(
                index,
                config=HDSearchConfig(ann=AnnConfig(prefix_words=2)),
                engine=EngineConfig(ann=AnnConfig(prefix_words=4)),
            )

    def test_batched_searcher_accepts_engine(self, index, queries, monkeypatch):
        expected = [
            _psm_key(p) for p in BatchedHDOmsSearcher.from_index(index).search(queries).psms
        ]
        # Blocks of 3 split the 8 queries over three encode chunks.
        monkeypatch.setattr("repro.oms.loop.ENCODE_BLOCK_SIZE", 3)
        engined = BatchedHDOmsSearcher.from_index(index, engine=EngineConfig())
        assert [_psm_key(p) for p in engined.search(queries).psms] == expected

    def test_batched_searcher_engine_ann_conflict(self, index):
        with pytest.raises(ValueError, match="conflicting ANN"):
            BatchedHDOmsSearcher.from_index(
                index,
                ann=AnnConfig(prefix_words=2),
                engine=EngineConfig(ann=AnnConfig(prefix_words=4)),
            )


class TestServiceConfigEngine:
    def test_default_is_one_serial_shard(self):
        assert ServiceConfig().resolved_engine() == EngineConfig(
            kind="auto", num_shards=1, num_workers=0
        )

    def test_legacy_engine_fields_are_gone(self):
        fields = {field.name for field in dataclasses.fields(ServiceConfig)}
        assert not fields & {
            "engine", "num_shards", "num_workers", "backend", "executor",
            "score_block_rows", "ann",
        }
        assert len(fields) == 7  # the newest is max_inflight, the admission gate
        with pytest.raises(TypeError, match="num_shards"):
            ServiceConfig(num_shards=4)

    def test_engine_config_passes_through(self):
        engine = EngineConfig(kind="sharded", num_shards=3, executor="thread")
        assert ServiceConfig(engine_config=engine).resolved_engine() == engine

    def test_with_ann_targets_engine_config(self):
        ann = AnnConfig(ann_threshold=1)
        config = ServiceConfig(engine_config=EngineConfig(kind="sharded"))
        updated = config.with_ann(ann)
        assert updated.resolved_ann() == ann
        assert updated.engine_config.ann == ann
        assert updated.with_ann(None).resolved_ann() is None

    def test_batched_is_no_longer_an_engine_kind(self):
        with pytest.raises(ValueError, match="engine kind"):
            EngineConfig(kind="batched")
