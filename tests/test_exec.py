"""Execution tests: the encode/score pipeline and the shard scorer.

The encode/score pipeline (``repro.exec``) never reorders results, a
pipelined search equals the one-batch schedule, and a full-coverage
window counts every row of a shard.  Serial and thread-pool scoring
are cells of ``tests/test_property_kernel.py``'s engine matrix; here a
4 096-row library holds both to the oracle at batch 256 and bounds the
memory the scoring threads add.
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


def test_pipelined_search_matches_single_batch(monkeypatch):
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

    def run(block_size, query_ber=0.0):
        monkeypatch.setattr("repro.oms.loop.ENCODE_BLOCK_SIZE", block_size)
        with ShardedSearcher(
            index,
            config=HDSearchConfig(mode="cascade", query_ber=query_ber),
            engine=EngineConfig(num_shards=2, num_workers=2),
        ) as searcher:
            result = searcher.search(wl.queries)
        return [
            (psm.query_id, psm.reference_id, psm.score, psm.mode)
            for psm in result.psms
        ]

    # 17 queries in blocks of 3 -> 6 chunks in flight through the pipeline.
    assert run(1000) == run(3)
    # BER noise draws in the consumer stay in arrival order too.
    assert run(1000, query_ber=0.01) == run(3, query_ber=0.01)


def _rss_mb() -> float:
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0  # pragma: no cover - non-Linux


def test_thread_and_serial_scoring_equal_brute_force_without_copying():
    """Two scoring threads and serial scoring both equal the oracle.

    Threads score views of the index's own packed rows; what they add
    is one permuted copy per shard, i.e. about the library's size —
    never a per-worker multiple of it.  Generous slack for allocator
    noise.
    """
    from repro.engine import EngineConfig
    from repro.hdc.spaces import HDSpaceConfig
    from repro.index import LibraryIndex, ShardedSearcher
    from repro.ms.synthetic import WorkloadConfig, build_workload
    from repro.ms.vectorize import BinningConfig
    from repro.oms import HDOmsSearcher

    workload = build_workload(
        WorkloadConfig(
            name="bench-score", num_references=4096, num_queries=256, seed=17
        )
    )
    binning = BinningConfig()
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(dim=4096, num_bins=binning.num_bins, seed=29),
        binning=binning,
    )
    expected = HDOmsSearcher.from_index(index).search(workload.queries).psms
    library_mb = sum(
        array.nbytes for array in (index.packed, index.neutral_masses, index.charges)
    ) / (1024.0 * 1024.0)
    for num_workers in (2, 0):
        rss_before = _rss_mb()
        engine = EngineConfig(kind="sharded", num_shards=2, num_workers=num_workers)
        with ShardedSearcher(index, engine=engine) as searcher:
            assert searcher.search(workload.queries).psms == expected
            rss_extra_mb = _rss_mb() - rss_before
        if num_workers:
            assert rss_extra_mb <= max(64.0, 0.2 * rss_before + 2.0 * library_mb), (
                f"thread-mode scoring added {rss_extra_mb:.1f} MB RSS over the "
                f"{rss_before:.1f} MB single-process baseline"
            )


def test_entry_points_never_import_multiprocessing():
    """Every engine scores in-process, so no entry point forks or maps shm."""
    # Package exports are lazy: read every name so each module loads.
    script = (
        "import sys\n"
        "import repro.cli, repro.index, repro.store, repro.service, repro.coord\n"
        "for package in (repro.index, repro.store, repro.service, repro.coord):\n"
        "    for name in package.__all__:\n"
        "        getattr(package, name)\n"
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


#: Modules a one-shot ``index search`` over an ``.npz`` has no use for.
SEARCH_NEVER_IMPORTS = (
    "repro.ms.synthetic",
    "repro.store",
    "repro.store.ingest",
    "repro.oms.pipeline",
    "repro.oms.search",
    "repro.oms.modification_analysis",
    "repro.hdc.alt_encoders",
    "repro.experiments",
    "repro.rram",
    "repro.accelerator",
    "repro.service",
    "repro.coord",
)


def test_index_search_imports_only_what_it_runs(tmp_path, small_workload):
    """A one-shot CLI search pays for the code it runs and no more."""
    from repro.hdc.spaces import HDSpaceConfig
    from repro.index import LibraryIndex
    from repro.ms.mgf import write_mgf
    from repro.ms.vectorize import BinningConfig

    binning = BinningConfig()
    index = LibraryIndex.build(
        small_workload.references[:40],
        space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=4),
        binning=binning,
    ).save(tmp_path / "library.npz")
    queries = tmp_path / "q.mgf"
    write_mgf(small_workload.queries[:1], queries)
    argv = [
        "index", "search", "--index", str(index), "--queries", str(queries),
        "--output", str(tmp_path / "psms.tsv"),
    ]
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"loaded = sorted(set({SEARCH_NEVER_IMPORTS!r}) & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert completed.returncode == 0, completed.stderr
    assert (tmp_path / "psms.tsv").read_text().startswith("query_id\t")


def test_index_build_and_append_load_no_numpy_ma(tmp_path, small_workload):
    """The write path iterates charges itself: ``np.unique`` loads ``numpy.ma``."""
    from repro.ms.msp import write_msp

    write_msp(small_workload.references[:30], tmp_path / "library.msp")
    write_msp(small_workload.references[30:45], tmp_path / "more.msp")
    shared = ["--dim", "256", "--seed", "4"]
    calls = [
        ["index", "build", "--library", str(tmp_path / "library.msp"),
         "--output", str(tmp_path / "library.npz"), *shared],
        ["index", "build", "--library", str(tmp_path / "library.msp"),
         "--output", str(tmp_path / "store"), "--segment-rows", "16", *shared],
        ["index", "append", "--store", str(tmp_path / "store"),
         "--library", str(tmp_path / "more.msp"), "--seed", "4"],
    ]
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert completed.returncode == 0, completed.stderr


def test_the_serving_path_never_imports_the_oracle():
    """``repro serve`` and ``repro coordinate`` load no brute-force searcher."""
    script = (
        "import sys\n"
        "import repro.coord.server, repro.service.server\n"
        "assert 'repro.oms.search' not in sys.modules, 'the oracle module was imported'\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert completed.returncode == 0, completed.stderr
