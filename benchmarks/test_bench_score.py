"""Bench: the two parallel executors behind the public ShardedSearcher.

``executor="thread"`` scores shards on in-process threads over the
searcher's own row views (GIL-releasing XOR/popcount kernels, no arena,
no IPC); ``executor="process"`` copies the rows into one shared-memory
arena and fans batches out to a worker pool.  Both are driven exactly as
a caller would — ``ShardedSearcher(index, engine=EngineConfig(...))`` —
at batch 256, two shards, two workers:

* **cold** — construct the searcher and answer one batch (what an index
  reload or a CLI run pays);
* **warm** — steady-state per-batch search with everything started.

Every answer is compared PSM for PSM with the brute-force
:class:`~repro.oms.search.HDOmsSearcher` before anything is timed, and
the thread mode's extra RSS is bounded — those are the gates.  The
timings and their ratios are *recorded* (``BENCH_score.json``, one
schema-checked entry per run; gitignored), never asserted: wall-clock
ratios depend on the host (thread 2.3-3.1x cold but 0.89-1.27x warm vs
the process pool on a 2-core VM), and ``bench/run.py --trace 1 --layers
exec`` reports the same four numbers on the tracked harness.
``REPRO_BENCH_SCALE`` (default 1.0) scales the library size for CI
smoke.
"""

import os
import time

import pytest
from conftest import SCORE_KEYS, record_trajectory

from repro.engine import EngineConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex, ShardedSearcher
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms import HDOmsSearcher

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

BATCH = 256
DIM = 4096
NUM_ROWS = max(512, int(4096 * BENCH_SCALE))
NUM_SHARDS = 2
NUM_WORKERS = 2


@pytest.fixture(scope="module")
def score_setup():
    workload = build_workload(
        WorkloadConfig(
            name="bench-score", num_references=NUM_ROWS, num_queries=BATCH, seed=17
        )
    )
    binning = BinningConfig()
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(dim=DIM, num_bins=binning.num_bins, seed=29),
        binning=binning,
    )
    expected = HDOmsSearcher.from_index(index).search(workload.queries)
    return index, workload.queries, expected.psms


def _engine(executor: str, **changes) -> EngineConfig:
    knobs = dict(
        kind="sharded",
        num_shards=NUM_SHARDS,
        num_workers=NUM_WORKERS,
        executor=executor,
    )
    return EngineConfig(**{**knobs, **changes})


def _best_of(func, rounds=3):
    best, last = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        last = func()
        best = min(best, time.perf_counter() - start)
    return best, last


def _rss_mb() -> float:
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0  # pragma: no cover - non-Linux


def test_bench_score_thread_vs_process_executor(score_setup, capsys):
    """Both executors equal brute force; cold/warm timings are recorded."""
    index, queries, expected = score_setup
    timings, arena_mb, rss_extra_mb = {}, 0.0, 0.0
    for executor in ("thread", "process"):
        rss_before = _rss_mb()
        start = time.perf_counter()
        searcher = ShardedSearcher(index, engine=_engine(executor))
        try:
            first = searcher.search(queries)
            timings[executor, "cold"] = time.perf_counter() - start
            assert searcher.executor_kind == executor
            assert first.psms == expected
            timings[executor, "warm"], warm = _best_of(
                lambda: searcher.search(queries)
            )
            assert warm.psms == expected
            if executor == "thread":
                assert searcher.arena_nbytes == 0
                rss_extra_mb = max(0.0, _rss_mb() - rss_before)
                thread_rss_base = rss_before
            else:
                arena_mb = searcher.arena_nbytes / (1024.0 * 1024.0)
        finally:
            searcher.close()

    cold_speedup = timings["process", "cold"] / max(timings["thread", "cold"], 1e-12)
    warm_speedup = timings["process", "warm"] / max(timings["thread", "warm"], 1e-12)
    queries_per_second = BATCH / max(timings["thread", "warm"], 1e-12)
    record_trajectory(
        "BENCH_score.json",
        {
            "bench": "score_executors",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "batch": BATCH,
            "dim": DIM,
            "num_rows": index.num_references,
            "num_shards": NUM_SHARDS,
            "num_workers": NUM_WORKERS,
            "cpu_count": os.cpu_count() or 1,
            "process_cold_seconds": round(timings["process", "cold"], 6),
            "thread_cold_seconds": round(timings["thread", "cold"], 6),
            "process_warm_seconds": round(timings["process", "warm"], 6),
            "thread_warm_seconds": round(timings["thread", "warm"], 6),
            "speedup": round(cold_speedup, 2),
            "warm_speedup": round(warm_speedup, 2),
            "queries_per_second": round(queries_per_second, 1),
            "arena_mb": round(arena_mb, 2),
            "rss_extra_mb": round(rss_extra_mb, 2),
        },
        SCORE_KEYS,
    )
    with capsys.disabled():
        print(
            f"\n[bench-score] batch {BATCH} @ D={DIM}, n={index.num_references}: "
            f"cold process {1000 * timings['process', 'cold']:.0f} ms vs "
            f"thread {1000 * timings['thread', 'cold']:.0f} ms "
            f"({cold_speedup:.1f}x); warm "
            f"{1000 * timings['process', 'warm']:.1f} vs "
            f"{1000 * timings['thread', 'warm']:.1f} ms ({warm_speedup:.2f}x, "
            f"{queries_per_second:.0f} q/s, +{rss_extra_mb:.1f} MB RSS, "
            f"process arena {arena_mb:.1f} MB)"
        )
    # Threads score views of the index's own packed rows; what they add
    # is one permuted copy per shard, i.e. about the process arena's
    # size — never a per-worker multiple of it.  Generous slack for
    # allocator noise on tiny CI workloads.
    assert rss_extra_mb <= max(64.0, 0.2 * thread_rss_base + 2.0 * arena_mb), (
        f"thread-mode scoring added {rss_extra_mb:.1f} MB RSS over the "
        f"{thread_rss_base:.1f} MB single-process baseline"
    )

