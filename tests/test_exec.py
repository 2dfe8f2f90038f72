"""Zero-copy executor tests: arena lifecycle, pipeline, process parity.

The contract under test is the tentpole guarantee of ``repro.exec``:
process-pool scoring over the shared-memory arena returns results
**bit-identical** to in-process scoring of the same rows (thread-pool
scoring is a cell of ``tests/test_property_kernel.py``'s engine
matrix), the encode/score pipeline never reorders results, and no
execution path — graceful close, terminate fallback, crashing pool
initializer, SIGTERM mid-storm — can leak a shared-memory segment.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import AnnConfig
from repro.exec import (
    ArenaSpec,
    ProcessShardExecutor,
    SharedShardArena,
    ShardScorer,
    pipeline_map,
    shard_payload,
)
from repro.exec.arena import ARENA_ALIGN
from repro.exec.pool import arena_shard_payload
from repro.hdc.packing import pack_bipolar

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_PATH = str(REPO_ROOT / "src")

DIM = 256
NUM_ROWS = 96
NUM_SHARDS = 3


def _library_arrays(seed: int = 5):
    rng = np.random.default_rng(seed)
    bipolar = rng.choice(np.array([-1, 1], dtype=np.int8), size=(NUM_ROWS, DIM))
    packed = np.packbits((bipolar > 0).astype(np.uint8), axis=-1)
    masses = np.sort(rng.uniform(300.0, 1500.0, NUM_ROWS))
    charges = rng.integers(2, 4, NUM_ROWS).astype(np.int64)
    return bipolar, packed, masses, charges


def _bounds(num_rows: int, num_shards: int):
    base, extra = divmod(num_rows, num_shards)
    bounds, start = [], 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < extra else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


# ----------------------------------------------------------------------
# arena
# ----------------------------------------------------------------------


class TestSharedShardArena:
    def test_roundtrip_attach_by_spec(self):
        arrays = {
            "packed": np.arange(24, dtype=np.uint8).reshape(3, 8),
            "masses": np.linspace(0.5, 9.5, 7),
            "charges": np.array([2, 3, 2], dtype=np.int64),
            # Non-contiguous source: the arena must copy values, not
            # assume layout.
            "strided": np.arange(20, dtype=np.int32)[::2],
        }
        with SharedShardArena.create(arrays) as owner:
            assert set(owner.keys()) == set(arrays)
            assert owner.nbytes == owner.spec().size
            for _, offset, _, _ in owner.spec().layout:
                assert offset % ARENA_ALIGN == 0
            attached = SharedShardArena.attach(owner.spec())
            try:
                for key, value in arrays.items():
                    np.testing.assert_array_equal(owner.array(key), value)
                    np.testing.assert_array_equal(attached.array(key), value)
                # Worker-side views alias the owner's segment.
                owner.array("charges")[0] = 9
                assert attached.array("charges")[0] == 9
            finally:
                attached.close()

    def test_spec_is_picklable(self):
        import pickle

        spec = ArenaSpec(
            name="x", size=64, layout=(("a", 0, "<i8", (4,)),)
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_empty_arrays_rejected(self):
        with pytest.raises(ValueError, match="at least one array"):
            SharedShardArena.create({})

    def test_unknown_key_and_closed_access(self):
        arena = SharedShardArena.create({"a": np.zeros(3)})
        with pytest.raises(KeyError):
            arena.array("missing")
        arena.close()
        assert arena.closed
        with pytest.raises(RuntimeError, match="closed"):
            arena.array("a")
        arena.close()  # idempotent

    def test_owner_close_unlinks_segment(self):
        arena = SharedShardArena.create({"a": np.ones(5)})
        name = arena.name.lstrip("/")
        assert name in os.listdir("/dev/shm")
        arena.close()
        assert name not in os.listdir("/dev/shm")

    def test_attacher_close_does_not_unlink(self):
        owner = SharedShardArena.create({"a": np.ones(5)})
        name = owner.name.lstrip("/")
        try:
            attached = SharedShardArena.attach(owner.spec())
            attached.close()
            assert name in os.listdir("/dev/shm")
        finally:
            owner.close()
        assert name not in os.listdir("/dev/shm")


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
# process-pool vs in-process parity (hypothesis)
# ----------------------------------------------------------------------


def _make_setup(arrays, *, ann=None):
    return {
        "dim": DIM,
        "charge_aware": True,
        "bounds": _bounds(NUM_ROWS, NUM_SHARDS),
        "ann": ann,
    }


@pytest.fixture(scope="module")
def parity_env():
    """One arena + one process pool, shared by all hypothesis examples
    (pool startup is far too slow per-example)."""
    _, packed, masses, charges = _library_arrays()
    # Shards hold 32 rows of 4 words: a narrow prefix, a real cut.
    ann = AnnConfig(prefix_words=1, candidate_budget=4, ann_threshold=1)
    arrays = {"packed": packed, "masses": masses, "charges": charges}
    arena = SharedShardArena.create(arrays)

    envs = {}
    for label, ann_cfg in [("exact", None), ("ann", ann)]:
        setup = dict(_make_setup(arrays, ann=ann_cfg), spec=arena.spec())
        process = ProcessShardExecutor(setup, num_workers=2)
        serial = [
            ShardScorer(arena_shard_payload(arena, setup, shard_id))
            for shard_id in range(NUM_SHARDS)
        ]
        envs[label] = (process, serial)
    yield envs, masses
    for process, _ in envs.values():
        process.close(timeout=5.0)
    arena.close()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_process_scores_bit_identical_to_in_process(parity_env, data):
    envs, masses = parity_env
    label = data.draw(st.sampled_from(["exact", "ann"]))
    num_queries = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 2**31 - 1))
    # Huge half-width produces full-coverage windows; tiny ones produce
    # empty/sparse windows.
    half_width = data.draw(st.sampled_from([0.01, 5.0, 250.0, 1e9]))
    rng = np.random.default_rng(seed)
    query_hvs = pack_bipolar(
        rng.choice(np.array([-1, 1], dtype=np.int8), size=(num_queries, DIM))
    )
    query_masses = rng.uniform(float(masses[0]), float(masses[-1]), num_queries)
    query_charges = rng.integers(2, 4, num_queries).astype(np.int64)

    tasks = [
        (shard_id, query_hvs, query_masses, query_charges, half_width)
        for shard_id in range(NUM_SHARDS)
    ]
    process, serial = envs[label]
    from_process = process.run(tasks)
    from_serial = [
        (task[0], 0.0) + serial[task[0]].score_batch(*task[1:])
        for task in tasks
    ]
    for result_p, result_s in zip(from_process, from_serial):
        assert result_p[0] == result_s[0]
        for column in range(2, 8):
            np.testing.assert_array_equal(result_p[column], result_s[column])


def test_full_coverage_window_hits_fast_path(parity_env):
    """half_width=1e9 covers every row; parity already asserted above —
    this pins that the window really is full-coverage (fast path)."""
    envs, masses = parity_env
    process, _ = envs["exact"]
    query_hvs = pack_bipolar(np.ones((2, DIM), dtype=np.int8))
    query_masses = np.array([masses[0], masses[-1]])
    query_charges = np.array([2, 3], dtype=np.int64)
    tasks = [
        (shard_id, query_hvs, query_masses, query_charges, 1e9)
        for shard_id in range(NUM_SHARDS)
    ]
    results = process.run(tasks)
    _, packed, _, charges = _library_arrays()
    for shard_id, (start, stop) in enumerate(_bounds(NUM_ROWS, NUM_SHARDS)):
        for row in range(2):
            expected = int(
                np.sum(charges[start:stop] == query_charges[row])
            )
            assert int(results[shard_id][2][row]) == expected


# ----------------------------------------------------------------------
# executor error handling
# ----------------------------------------------------------------------


def test_process_pool_start_failure_raises_cleanly(monkeypatch):
    """A crashing pool initializer becomes RuntimeError, not a hang."""
    import repro.exec.pool as pool_module

    _, packed, masses, charges = _library_arrays()
    arena = SharedShardArena.create(
        {"packed": packed, "masses": masses, "charges": charges}
    )
    try:
        setup = dict(_make_setup(None), spec=arena.spec())

        def bad_init(_setup):
            raise RuntimeError("initializer died")

        monkeypatch.setattr(pool_module, "_init_arena_worker", bad_init)
        executor = ProcessShardExecutor(setup, num_workers=2, start_timeout=3.0)
        tasks = [
            (0, np.ones((1, DIM), dtype=np.int8), masses[:1], charges[:1], 1.0)
        ]
        with pytest.raises(RuntimeError, match="failed to start"):
            executor.run(tasks)
        executor.close()
    finally:
        arena.close()
    assert arena.name.lstrip("/") not in os.listdir("/dev/shm")


# ----------------------------------------------------------------------
# lifecycle regressions (subprocess, -W error::UserWarning)
# ----------------------------------------------------------------------


def _run_lifecycle_script(body: str, *, timeout: float = 120.0):
    """Run a lifecycle scenario in a clean interpreter with warnings
    escalated — a leaked shared_memory segment surfaces as the resource
    tracker's UserWarning at interpreter exit and fails the script."""
    return subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", body],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
        cwd=str(REPO_ROOT),
    )


_SCRIPT_PRELUDE = """
import os, sys, time
import numpy as np
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index.library import LibraryIndex
from repro.index.sharded import ShardedSearcher
from repro.engine import EngineConfig

TWO_PROCESSES = EngineConfig(num_shards=2, num_workers=2)
wl = build_workload(WorkloadConfig(name="t", num_references=40, num_queries=8, seed=9))
binning = BinningConfig()
space = HDSpaceConfig(dim=256, num_bins=binning.num_bins, num_levels=8,
                      id_precision_bits=3, chunked=True, seed=11)
index = LibraryIndex.build(wl.references, space_config=space, binning=binning)
before = set(os.listdir("/dev/shm"))
"""

_SCRIPT_CHECK = """
leftover = set(os.listdir("/dev/shm")) - before
assert not leftover, f"leaked segments: {leftover}"
print("CLEAN")
"""


class TestLifecycleRegressions:
    def _assert_clean(self, completed):
        assert completed.returncode == 0, completed.stderr
        assert "CLEAN" in completed.stdout, completed.stdout
        assert "leaked" not in completed.stderr.lower(), completed.stderr

    def test_normal_close_unlinks(self):
        body = _SCRIPT_PRELUDE + """
with ShardedSearcher(index, engine=TWO_PROCESSES) as searcher:
    searcher.search(wl.queries)
""" + _SCRIPT_CHECK
        self._assert_clean(_run_lifecycle_script(body))

    def test_terminate_fallback_still_unlinks(self):
        """close() with a wedged worker terminates the pool AND unlinks."""
        body = _SCRIPT_PRELUDE + """
import threading
import repro.exec.pool as pool_module

original = pool_module._score_arena_task
def slow_task(task):
    time.sleep(60.0)
    return original(task)
# Patched before the pool forks, so workers inherit the slow task.
pool_module._score_arena_task = slow_task

searcher = ShardedSearcher(index, engine=TWO_PROCESSES)
runner = threading.Thread(
    target=lambda: searcher.search(wl.queries), daemon=True
)
runner.start()
time.sleep(1.5)  # let the pool start and the map() get stuck
searcher.close(timeout=0.5)  # wedged join -> terminate fallback
""" + _SCRIPT_CHECK
        self._assert_clean(_run_lifecycle_script(body))

    def test_initializer_crash_unlinks(self):
        """A pool initializer that raises mid-startup cannot leak."""
        body = _SCRIPT_PRELUDE + """
import repro.exec.pool as pool_module
pool_module.POOL_START_TIMEOUT = 3.0

def bad_init(setup):
    raise RuntimeError("initializer died")
pool_module._init_arena_worker = bad_init

searcher = ShardedSearcher(index, engine=TWO_PROCESSES)
try:
    searcher.search(wl.queries)
except RuntimeError as error:
    assert "failed to start" in str(error), error
else:
    raise AssertionError("expected pool startup failure")
searcher.close()
""" + _SCRIPT_CHECK
        self._assert_clean(_run_lifecycle_script(body))

    def test_sigterm_during_search_storm_unlinks(self, tmp_path):
        """SIGTERM mid-storm: the atexit/SIGTERM hook unlinks arenas."""
        ready = tmp_path / "ready"
        body = _SCRIPT_PRELUDE + f"""
searcher = ShardedSearcher(index, engine=TWO_PROCESSES)
searcher.search(wl.queries)  # warm the pool
open({str(ready)!r}, "w").write(searcher._arena.name)
while True:
    searcher.search(wl.queries)
"""
        process = subprocess.Popen(
            [sys.executable, "-c", body],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_PATH},
            cwd=str(REPO_ROOT),
        )
        try:
            deadline = time.time() + 60.0
            while not ready.exists() and time.time() < deadline:
                time.sleep(0.05)
            assert ready.exists(), process.stderr.read() if process.stderr else ""
            segment = ready.read_text().lstrip("/")
            assert segment in os.listdir("/dev/shm")
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        # Died by SIGTERM (the hook re-raises it) and nothing leaked.
        assert process.returncode == -signal.SIGTERM
        deadline = time.time() + 10.0
        while segment in os.listdir("/dev/shm") and time.time() < deadline:
            time.sleep(0.05)
        assert segment not in os.listdir("/dev/shm")


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
