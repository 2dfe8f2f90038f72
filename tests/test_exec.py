"""Execution tests: the encode/score pipeline and the shard scorer.

The encode/score pipeline (``repro.exec``) never reorders results, a
pipelined search equals the one-batch schedule, and a full-coverage
window counts every row of a shard.  Serial and thread-pool scoring
are cells of ``tests/test_property_kernel.py``'s engine matrix.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exec import pipeline_map
from repro.hdc.packing import pack_bipolar
from repro.oms.kernel import ShardScorer, shard_payload

SRC_PATH = str(Path(__file__).resolve().parent.parent / "src")

DIM = 256
NUM_ROWS = 96
NUM_SHARDS = 3


def _library_arrays(seed: int = 5):
    rng = np.random.default_rng(seed)
    packed = rng.integers(0, 256, size=(NUM_ROWS, DIM // 8), dtype=np.uint8)
    masses = np.sort(rng.uniform(300.0, 1500.0, NUM_ROWS))
    charges = rng.integers(2, 4, NUM_ROWS).astype(np.int64)
    return packed, masses, charges


def _bounds(num_rows: int, num_shards: int):
    base, extra = divmod(num_rows, num_shards)
    bounds, start = [], 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < extra else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------


class TestPipelineMap:
    def test_single_item_runs_inline(self):
        thread_names = []

        def func(item):
            thread_names.append(threading.current_thread().name)
            return item * 2

        assert list(pipeline_map(func, [21])) == [42]
        assert thread_names == [threading.current_thread().name]

    def test_results_in_submit_order_with_producer_ahead(self):
        """Batch k+1 encodes before batch k is consumed; order holds."""
        ahead = threading.Event()
        produced = []

        def encode(item):
            produced.append(item)
            if item == 1:
                ahead.set()
            return item

        consumed = []
        for result in pipeline_map(encode, [0, 1, 2, 3]):
            if result == 0:
                # The producer must be able to finish item 1 while item
                # 0 sits unconsumed — that is the overlap.
                assert ahead.wait(timeout=5.0)
            consumed.append(result)
        assert consumed == [0, 1, 2, 3]
        assert produced == [0, 1, 2, 3]

    def test_error_propagates_at_position(self):
        def encode(item):
            if item == 2:
                raise RuntimeError("boom at 2")
            return item

        received = []
        with pytest.raises(RuntimeError, match="boom at 2"):
            for result in pipeline_map(encode, [0, 1, 2, 3]):
                received.append(result)
        assert received == [0, 1]

    def test_early_close_stops_producer(self):
        started = []

        def encode(item):
            started.append(item)
            return item

        generator = pipeline_map(encode, list(range(100)))
        assert next(generator) == 0
        generator.close()
        time.sleep(0.2)
        # Producer stopped promptly: at most the in-flight + queued
        # depth was encoded, not all 100 items.
        assert len(started) <= 5

    def test_depth_validated(self):
        with pytest.raises(ValueError, match="depth"):
            list(pipeline_map(lambda x: x, [1, 2], depth=0))


# ----------------------------------------------------------------------
# the shard scorer's full-coverage window
# ----------------------------------------------------------------------


def test_full_coverage_window_hits_fast_path():
    """half_width=1e9 covers every row: each shard counts every row of
    the query's charge (the engine matrix in test_property_kernel.py
    holds the scores bit-identical to brute force)."""
    packed, masses, charges = _library_arrays()
    query_hvs = pack_bipolar(np.ones((2, DIM), dtype=np.int8))
    query_masses = np.array([masses[0], masses[-1]])
    query_charges = np.array([2, 3], dtype=np.int64)
    for shard_id, (start, stop) in enumerate(_bounds(NUM_ROWS, NUM_SHARDS)):
        scorer = ShardScorer(
            shard_payload(
                shard_id,
                (start, stop),
                packed,
                masses,
                charges,
                dim=DIM,
                charge_aware=True,
            )
        )
        counts = scorer.score_batch(query_hvs, query_masses, query_charges, 1e9)[0]
        for row in range(2):
            expected = int(np.sum(charges[start:stop] == query_charges[row]))
            assert int(counts[row]) == expected


# ----------------------------------------------------------------------
# pipelined search ordering (end to end)
# ----------------------------------------------------------------------


def test_pipelined_search_matches_single_batch():
    """Multi-chunk pipelined search equals the one-chunk schedule."""
    from repro.ms.synthetic import WorkloadConfig, build_workload
    from repro.ms.vectorize import BinningConfig
    from repro.hdc.spaces import HDSpaceConfig
    from repro.index.library import LibraryIndex
    from repro.engine import EngineConfig
    from repro.index.sharded import ShardedSearcher
    from repro.oms.search import HDSearchConfig

    wl = build_workload(
        WorkloadConfig(name="t", num_references=40, num_queries=17, seed=21)
    )
    binning = BinningConfig()
    space = HDSpaceConfig(
        dim=256,
        num_bins=binning.num_bins,
        num_levels=8,
        id_precision_bits=3,
        chunked=True,
        seed=11,
    )
    index = LibraryIndex.build(wl.references, space_config=space, binning=binning)

    def run(pipeline_batch, query_ber=0.0):
        with ShardedSearcher(
            index,
            config=HDSearchConfig(mode="cascade", query_ber=query_ber),
            engine=EngineConfig(
                num_shards=2,
                num_workers=2,
                executor="thread",
                pipeline_batch=pipeline_batch,
            ),
        ) as searcher:
            result = searcher.search(wl.queries)
        return [
            (psm.query_id, psm.reference_id, psm.score, psm.mode)
            for psm in result.psms
        ]

    # 17 queries with batch 3 -> 6 chunks in flight through the pipeline.
    assert run(pipeline_batch=1000) == run(pipeline_batch=3)
    # BER noise draws in the consumer stay in arrival order too.
    assert run(1000, query_ber=0.01) == run(3, query_ber=0.01)


def test_entry_points_never_import_multiprocessing():
    """Every engine scores in-process, so no entry point forks or maps shm."""
    script = (
        "import sys\n"
        "import repro.cli, repro.index, repro.store, repro.service, repro.coord\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert completed.returncode == 0, completed.stderr
