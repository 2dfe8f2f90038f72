"""Execution tests: the query loop, the shard scorer and the scoring threads.

A search split over many encode blocks equals the one-block schedule,
encodes each block on the caller's thread and answers ``None`` where
preprocessing dropped a query; a full-coverage window counts every row
of a shard.  Serial and
thread-pool scoring are cells of ``tests/test_property_kernel.py``'s
engine matrix; here a 4 096-row library holds both to the oracle at
batch 256 and bounds the memory the scoring threads add.  A searcher
nobody closed neither hangs interpreter exit nor leaks its threads.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

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
# the query loop's encode blocks (end to end)
# ----------------------------------------------------------------------


def _block_workload():
    """17 queries against a 40-row index: 6 encode blocks of 3."""
    from repro.ms.synthetic import WorkloadConfig, build_workload
    from repro.ms.vectorize import BinningConfig
    from repro.hdc.spaces import HDSpaceConfig
    from repro.index.library import LibraryIndex

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
    return wl, LibraryIndex.build(wl.references, space_config=space, binning=binning)


def _block_searcher(index):
    from repro.engine import EngineConfig
    from repro.index.sharded import ShardedSearcher
    from repro.oms.search import HDSearchConfig

    return ShardedSearcher(
        index,
        config=HDSearchConfig(mode="cascade"),
        engine=EngineConfig(num_shards=2, num_workers=2),
    )


def _sparse_query(identifier: str, precursor_mz: float):
    """A query with fewer peaks than preprocessing keeps: it is dropped."""
    from repro.ms.spectrum import Spectrum

    return Spectrum(
        identifier=identifier,
        precursor_mz=precursor_mz,
        precursor_charge=2,
        mz=np.array([300.0, 400.0]),
        intensity=np.array([1.0, 2.0]),
    )


def _keys(psms):
    return [
        None if psm is None else (psm.query_id, psm.reference_id, psm.score, psm.mode)
        for psm in psms
    ]


def test_multi_block_search_matches_single_block(monkeypatch):
    """A search over many encode blocks equals the one-block schedule."""
    from repro.engine import EngineConfig
    from repro.index.sharded import ShardedSearcher
    from repro.oms.search import HDSearchConfig

    wl, index = _block_workload()

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

    # 17 queries in blocks of 3 -> 6 encode blocks.
    assert run(1000) == run(3)
    # BER noise draws stay in arrival order too.
    assert run(1000, query_ber=0.01) == run(3, query_ber=0.01)


def test_every_encode_block_runs_on_the_callers_thread(monkeypatch):
    """One encode call per block, each on the thread that searches."""
    import repro.oms.loop as loop

    wl, index = _block_workload()
    calls = []
    encode = loop.encode_packed_rows

    def recording(encoder, spectra):
        calls.append((threading.get_ident(), len(spectra)))
        return encode(encoder, spectra)

    monkeypatch.setattr("repro.oms.loop.ENCODE_BLOCK_SIZE", 3)
    monkeypatch.setattr(loop, "encode_packed_rows", recording)
    with _block_searcher(index) as searcher:
        searcher.search_aligned(wl.queries)
    assert [size for _, size in calls] == [3, 3, 3, 3, 3, 2]
    assert {ident for ident, _ in calls} == {threading.get_ident()}


def _search_with_dropped(monkeypatch, dropped):
    """PSM keys of the workload with sparse queries inserted at
    ``dropped`` (ascending final positions) in blocks of 3, and of the
    workload alone in one block."""
    wl, index = _block_workload()
    queries = list(wl.queries)
    for position in dropped:
        queries.insert(position, _sparse_query(f"sparse-{position}", 500.0))
    with _block_searcher(index) as searcher:
        alone = _keys(searcher.search_aligned(wl.queries))
    monkeypatch.setattr("repro.oms.loop.ENCODE_BLOCK_SIZE", 3)
    with _block_searcher(index) as searcher:
        aligned = _keys(searcher.search_aligned(queries))
    assert len(aligned) == len(wl.queries) + len(dropped)
    return aligned, alone


def test_dropped_queries_answer_none_at_block_seams(monkeypatch):
    """A query preprocessing drops answers ``None`` where it stood, at
    the first, last and next-first row of a block; every other query
    keeps the PSM it gets alone in one block."""
    dropped = (0, 2, 3, 17)
    aligned, alone = _search_with_dropped(monkeypatch, dropped)
    assert [aligned[position] for position in dropped] == [None] * len(dropped)
    assert [
        psm for position, psm in enumerate(aligned) if position not in dropped
    ] == alone


def test_a_block_preprocessing_empties_answers_none_throughout(monkeypatch):
    """Rows 9-11 are the whole of block 3: it answers three ``None`` and
    the blocks around it search as before."""
    dropped = (9, 10, 11)
    aligned, alone = _search_with_dropped(monkeypatch, dropped)
    assert aligned[9:12] == [None, None, None]
    assert aligned[:9] + aligned[12:] == alone

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


#: Searches on two scoring threads, keeps the searcher unclosed in a
#: module global and exits: the searcher is collected at finalization.
UNCLOSED_SEARCHER = """
from repro.engine import EngineConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex, ShardedSearcher
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig

workload = build_workload(WorkloadConfig(name="t", num_references=40, num_queries=4, seed=3))
binning = BinningConfig()
index = LibraryIndex.build(
    workload.references,
    space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=3),
    binning=binning,
)
searcher = ShardedSearcher(index, engine=EngineConfig(num_shards=2, num_workers=2))
searcher.search(workload.queries)
assert searcher._pool is not None, "the scoring threads never started"
"""


def test_an_unclosed_threaded_searcher_lets_the_interpreter_exit():
    completed = subprocess.run(
        [sys.executable, "-c", UNCLOSED_SEARCHER],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert completed.returncode == 0, completed.stderr


def _scoring_threads():
    return [t for t in threading.enumerate() if t.name.startswith("shard-score")]


def test_dropped_searchers_leak_no_scoring_threads(small_workload):
    """A collected searcher's idle scoring threads stop by themselves."""
    import gc

    from repro.engine import EngineConfig
    from repro.hdc.spaces import HDSpaceConfig
    from repro.index import LibraryIndex, ShardedSearcher
    from repro.ms.vectorize import BinningConfig

    binning = BinningConfig()
    index = LibraryIndex.build(
        small_workload.references,
        space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=3),
        binning=binning,
    )
    baseline = len(_scoring_threads())
    for _ in range(5):
        searcher = ShardedSearcher(index, engine=EngineConfig(num_shards=2, num_workers=2))
        searcher.search(small_workload.queries[:4])
        assert searcher._pool is not None
        del searcher
        gc.collect()
    deadline = time.monotonic() + 10.0
    while len(_scoring_threads()) > baseline and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(_scoring_threads()) == baseline


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
