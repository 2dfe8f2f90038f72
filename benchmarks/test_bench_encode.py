"""Bench: fused batch encoding vs the row-loop baseline.

The fused :meth:`~repro.hdc.encoder.SpectrumEncoder.encode_batch`
pipeline concatenates every peak of a batch, gathers ID/level codebook
rows with two fancy-index operations, and segment-sums per spectrum.
This benchmark races it against the *row-loop baseline* — the seed
implementation: a Python loop over spectra, each paying per-spectrum
quantisation, a per-peak Python loop stacking ID rows, and one einsum —
and records the speed-up at batch 256 (a wall-clock ratio is a number to
track, not a Tier-1 verdict; the tracked encode throughput is
``hdc.encode_batch_spectra_per_s`` in ``python3 bench/run.py --trace 1``).

Parity is asserted before timing — that is the gate.  Results are
appended to ``benchmarks/results/BENCH_encode.json`` as a per-machine
perf trajectory (one schema-checked entry per run; gitignored because
the entries are timing-dependent).
"""

import time

import numpy as np
from conftest import CORE_KEYS, record_trajectory

from repro.hdc.encoder import SpectrumEncoder, sign_with_tiebreak
from repro.hdc.spaces import HDSpace, HDSpaceConfig
from repro.ms.vectorize import BinningConfig, SparseVector, quantize_intensities
from repro.obs import get_tracer

BATCH = 256
DIM = 2048
NUM_LEVELS = 16
MAX_PEAKS = 48
TIMING_ROUNDS = 5


def _row_loop_encode_batch(encoder: SpectrumEncoder, vectors) -> np.ndarray:
    """The seed implementation of ``encode_batch``, kept verbatim as the
    baseline: per-spectrum Python loop, per-peak ID row stacking, one
    einsum accumulator per spectrum."""
    space = encoder.space
    out = np.empty((len(vectors), space.dim), dtype=np.int8)
    for row, vector in enumerate(vectors):
        if len(vector) == 0:
            out[row] = space.tiebreak
            continue
        levels, _scale = quantize_intensities(vector.values, space.num_levels)
        ids = np.empty((len(vector), space.dim), dtype=np.int8)
        for peak, bin_index in enumerate(vector.indices.tolist()):
            ids[peak] = space.id_vector(bin_index)
        accumulator = np.einsum(
            "pd,pd->d",
            ids.astype(np.int32),
            space.level_vectors[levels].astype(np.int32),
            optimize=True,
        )
        out[row] = sign_with_tiebreak(accumulator, space.tiebreak)
    return out


def _best_of(func, rounds=TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_encode_fused_vs_row_loop(capsys):
    """Fused batch encode must be bit-identical; its speed-up is recorded."""
    binning = BinningConfig()
    space = HDSpace(
        HDSpaceConfig(
            dim=DIM, num_bins=binning.num_bins, num_levels=NUM_LEVELS, seed=7
        )
    )
    encoder = SpectrumEncoder(space, binning)
    rng = np.random.default_rng(21)
    vectors = []
    for _ in range(BATCH):
        num_peaks = int(rng.integers(8, MAX_PEAKS + 1))
        indices = np.sort(
            rng.choice(binning.num_bins, size=num_peaks, replace=False)
        ).astype(np.int64)
        values = rng.gamma(2.0, 100.0, size=num_peaks)
        vectors.append(SparseVector(indices, values, binning.num_bins))

    # Warm both paths: draws the ID bank both of them gather from, so
    # neither pays the one-time codebook draw inside the timed region.
    fused = encoder.encode_batch(vectors)
    baseline = _row_loop_encode_batch(encoder, vectors)
    assert np.array_equal(fused, baseline), "fused encode must be bit-identical"

    fused_seconds = _best_of(lambda: encoder.encode_batch(vectors))
    baseline_seconds = _best_of(lambda: _row_loop_encode_batch(encoder, vectors))
    speedup = baseline_seconds / max(fused_seconds, 1e-12)
    spectra_per_second = BATCH / max(fused_seconds, 1e-12)

    record_trajectory(
        "BENCH_encode.json",
        {
            "bench": "encode_batch",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "batch": BATCH,
            "dim": DIM,
            "num_levels": NUM_LEVELS,
            "mean_peaks": float(np.mean([len(v) for v in vectors])),
            "row_loop_seconds": round(baseline_seconds, 6),
            "fused_seconds": round(fused_seconds, 6),
            "speedup": round(speedup, 2),
            "spectra_per_second": round(spectra_per_second, 1),
        },
        CORE_KEYS,
    )
    with capsys.disabled():
        print(
            f"\n[bench-encode] batch {BATCH} @ D={DIM}: "
            f"row-loop {1000 * baseline_seconds:.2f} ms, "
            f"fused {1000 * fused_seconds:.2f} ms "
            f"({speedup:.1f}x, {spectra_per_second:.0f} spectra/s)"
        )


# ----------------------------------------------------------------------
# disabled-tracer overhead guard (repro.obs)
# ----------------------------------------------------------------------

#: Disabled span() calls timed per round (one per encode_batch in prod).
TRACER_PROBE_CALLS = 2000

#: Ceiling on (one disabled span) / (one encode_batch) — the obs layer's
#: "near-zero overhead when disabled" contract, enforced.
MAX_DISABLED_OVERHEAD = 0.02


def test_bench_disabled_tracer_overhead(capsys):
    """A disabled ``tracer.span`` must cost < 2% of one ``encode_batch``.

    ``encode_batch`` opens exactly one ``encode.batch`` span per call,
    so the instrumentation tax of the hot path with tracing off is one
    disabled ``span()`` (an attribute check plus the caller's kwargs
    dict).  This guard races that no-op against the encode work it
    shadows and fails if the disabled path ever grows real cost.
    """
    binning = BinningConfig()
    space = HDSpace(
        HDSpaceConfig(
            dim=1024, num_bins=binning.num_bins, num_levels=NUM_LEVELS, seed=7
        )
    )
    encoder = SpectrumEncoder(space, binning)
    rng = np.random.default_rng(33)
    vectors = []
    for _ in range(128):
        num_peaks = int(rng.integers(8, MAX_PEAKS + 1))
        indices = np.sort(
            rng.choice(binning.num_bins, size=num_peaks, replace=False)
        ).astype(np.int64)
        values = rng.gamma(2.0, 100.0, size=num_peaks)
        vectors.append(SparseVector(indices, values, binning.num_bins))

    tracer = get_tracer()
    assert not tracer.enabled, "benchmarks expect the global tracer off"
    encoder.encode_batch(vectors)  # warm the ID bank outside the timing
    encode_seconds = _best_of(lambda: encoder.encode_batch(vectors))

    def spin_disabled_spans():
        for _ in range(TRACER_PROBE_CALLS):
            with tracer.span("encode.batch", batch=128, peaks=4096):
                pass

    span_seconds = _best_of(spin_disabled_spans) / TRACER_PROBE_CALLS
    overhead = span_seconds / max(encode_seconds, 1e-12)
    with capsys.disabled():
        print(
            f"\n[bench-obs] disabled span {1e9 * span_seconds:.0f} ns vs "
            f"encode_batch {1000 * encode_seconds:.2f} ms "
            f"({100 * overhead:.4f}% overhead)"
        )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled tracer span costs {100 * overhead:.2f}% of encode_batch "
        f"(must stay < {100 * MAX_DISABLED_OVERHEAD:.0f}%)"
    )
