"""Bench: build-once/search-many amortisation and shard scaling.

The paper's economics depend on paying library encoding once and
serving many query batches from the persisted index.  These benchmarks
measure (a) the one-time index build, (b) an index-backed search that
must skip encoding entirely — asserted by *call counting*, not timing,
so the check is deterministic — and (c) sharded search at 1/2/4 shards
with PSM parity against the single-process searcher.

``REPRO_BENCH_SCALE`` (default 1.0) scales the workload for CI smoke.
"""

import os

import numpy as np
import pytest

from repro.engine import EngineConfig
from repro.hdc.encoder import SpectrumEncoder
from repro.hdc.spaces import HDSpace, HDSpaceConfig
from repro.index import LibraryIndex, ShardedSearcher
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms.search import HDOmsSearcher

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


class CountingEncoder:
    """Delegating encoder that counts how often encoding is invoked."""

    def __init__(self, encoder: SpectrumEncoder) -> None:
        self._encoder = encoder
        self.space = encoder.space
        self.binning = encoder.binning
        self.encode_calls = 0
        self.encode_batch_calls = 0

    def encode(self, spectrum):
        self.encode_calls += 1
        return self._encoder.encode(spectrum)

    def encode_batch(self, spectra):
        self.encode_batch_calls += 1
        return self._encoder.encode_batch(spectra)


@pytest.fixture(scope="module")
def bench_setup(tmp_path_factory):
    workload = build_workload(
        WorkloadConfig(
            name="bench-index",
            num_references=max(60, int(900 * BENCH_SCALE)),
            num_queries=max(12, int(50 * BENCH_SCALE)),
            seed=23,
        )
    )
    binning = BinningConfig()
    space_config = HDSpaceConfig(
        dim=2048, num_bins=binning.num_bins, num_levels=16, seed=5
    )
    encoder = SpectrumEncoder(HDSpace(space_config), binning)
    index = LibraryIndex.build(
        workload.references, encoder=encoder, source="bench"
    )
    path = index.save(tmp_path_factory.mktemp("bench-index") / "library.npz")
    baseline = HDOmsSearcher(encoder, workload.references).search(
        workload.queries
    )
    return workload, binning, space_config, encoder, index, path, baseline


def test_bench_index_build(benchmark, bench_setup):
    """One-time cost: chunked encode of the whole library + packing."""
    workload, binning, space_config, _encoder, _index, _path, _base = bench_setup
    index = benchmark.pedantic(
        LibraryIndex.build,
        args=(workload.references,),
        kwargs={"space_config": space_config, "binning": binning},
        rounds=1,
        iterations=1,
    )
    assert index.num_references > 0


def test_bench_search_from_index_skips_encoding(benchmark, bench_setup):
    """Index-backed search never re-encodes the library (call-counted)."""
    workload, _binning, _space, _encoder, _index, path, baseline = bench_setup
    loaded = LibraryIndex.load(path)
    counting = CountingEncoder(loaded.make_encoder())

    def load_and_search():
        searcher = HDOmsSearcher.from_index(loaded, encoder=counting)
        return searcher.search(workload.queries)

    result = benchmark.pedantic(load_and_search, rounds=2, iterations=1)
    # Reference encoding must have been skipped entirely: the only
    # encoder activity is one `encode` per preprocessed query.
    assert counting.encode_batch_calls == 0
    assert counting.encode_calls > 0
    assert result.psms == baseline.psms


def test_bench_build_once_search_many_speedup(bench_setup, capsys):
    """Amortisation: load+search must beat encode-from-scratch+search."""
    import time

    workload, _binning, _space, encoder, _index, path, baseline = bench_setup

    start = time.perf_counter()
    fresh = HDOmsSearcher(encoder, workload.references)
    fresh_result = fresh.search(workload.queries)
    fresh_seconds = time.perf_counter() - start

    start = time.perf_counter()
    loaded = LibraryIndex.load(path)
    amortised = HDOmsSearcher.from_index(loaded)
    amortised_result = amortised.search(workload.queries)
    amortised_seconds = time.perf_counter() - start

    assert amortised_result.psms == fresh_result.psms == baseline.psms
    with capsys.disabled():
        print(
            f"\n[bench-index] fresh build+search {fresh_seconds:.3f}s, "
            f"index load+search {amortised_seconds:.3f}s "
            f"({fresh_seconds / max(amortised_seconds, 1e-9):.1f}x)"
        )
    # The whole point of the index: skipping encoding must win.
    assert amortised_seconds < fresh_seconds


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_bench_sharded_scaling(benchmark, bench_setup, num_shards):
    """Shard fan-out keeps PSM parity at every shard count."""
    workload, _binning, _space, _encoder, index, _path, baseline = bench_setup
    engine = EngineConfig(num_shards=num_shards, num_workers=None)
    with ShardedSearcher(index, engine=engine) as searcher:
        searcher.search(workload.queries)  # warm the pool + shard caches
        result = benchmark.pedantic(
            searcher.search, args=(workload.queries,), rounds=2, iterations=1
        )
    assert result.psms == baseline.psms


def test_bench_mmap_load_is_cheap(benchmark, bench_setup):
    """Loading the persisted index is metadata-bound, not data-bound."""
    _wl, _binning, _space, _encoder, index, path, _base = bench_setup
    loaded = benchmark.pedantic(
        LibraryIndex.load, args=(path,), rounds=3, iterations=1
    )
    assert isinstance(loaded.packed, np.memmap)
    assert loaded.num_references == index.num_references
