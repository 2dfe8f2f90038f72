"""Bench: software search-backend throughput (supplementary).

Not a paper figure — this measures the repository's own software
paths (the oracle on dense BLAS and on packed XOR/popcount, and the
batched packed-window searcher) so regressions in the hot path are caught, and the relative cost of the digital paths
can be compared against the analytical model in ``accelerator/perf.py``.

``REPRO_BENCH_SCALE`` (a float, default 1.0) scales the workload; CI's
smoke job sets it well below 1 so the benchmarks assert behaviour
quickly rather than measure steady-state throughput.
"""

import os

import pytest

from repro.hdc.encoder import SpectrumEncoder
from repro.hdc.spaces import HDSpace, HDSpaceConfig
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms.batch import BatchedHDOmsSearcher
from repro.oms.search import DenseBackend, HDOmsSearcher, PackedBackend

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="module")
def throughput_setup():
    workload = build_workload(
        WorkloadConfig(
            name="throughput",
            num_references=max(50, int(1500 * BENCH_SCALE)),
            num_queries=max(10, int(100 * BENCH_SCALE)),
            seed=71,
        )
    )
    binning = BinningConfig()
    space = HDSpace(
        HDSpaceConfig(
            dim=4096,
            num_bins=binning.num_bins,
            num_levels=32,
            id_precision_bits=3,
            seed=9,
        )
    )
    encoder = SpectrumEncoder(space, binning)
    return workload, encoder


def test_throughput_dense_backend(benchmark, throughput_setup):
    workload, encoder = throughput_setup
    searcher = HDOmsSearcher(
        encoder, workload.references, backend=DenseBackend()
    )
    result = benchmark.pedantic(
        searcher.search, args=(workload.queries,), rounds=2, iterations=1
    )
    assert len(result.psms) > 0


def test_throughput_packed_backend(benchmark, throughput_setup):
    workload, encoder = throughput_setup
    searcher = HDOmsSearcher(
        encoder, workload.references, backend=PackedBackend()
    )
    result = benchmark.pedantic(
        searcher.search, args=(workload.queries,), rounds=2, iterations=1
    )
    assert len(result.psms) > 0


def test_throughput_batched_searcher(benchmark, throughput_setup):
    workload, encoder = throughput_setup
    searcher = BatchedHDOmsSearcher(encoder, workload.references)
    result = benchmark.pedantic(
        searcher.search, args=(workload.queries,), rounds=2, iterations=1
    )
    assert len(result.psms) > 0
