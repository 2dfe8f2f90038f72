"""Bench: Hamming-LSH candidate prefilter vs brute-force window scoring.

The prefilter's pitch is sublinear per-query work: instead of scoring
every library row inside the precursor window (open search windows span
a large fraction of the library), the query probes ``num_tables`` LSH
tables and exactly re-ranks only the ``candidate_budget`` rows that
collide most often.  This benchmark builds a >= 50k-row synthetic
library of random bipolar hypervectors, issues noisy-copy queries (5%
of components flipped — the regime the prefilter is designed for, see
``docs/ann-tuning.md``), and measures:

* a recall-vs-speedup curve over ``candidate_budget`` (appended to
  ``benchmarks/results/BENCH_ann.json`` as a per-machine trajectory);
* per-query cost *flattening*: growing the library 10x multiplies the
  brute-force cost ~10x but the ANN cost far less, because the scored
  shortlist stays capped at the budget.

Asserted: >= 0.99 top-1 recall on the full-size library, and ANN
per-query growth at most half the brute-force growth across the 10x
size step.  The speed-up itself is recorded, not gated (5.6-11.5x at
recall 1.0 on the reference host).  ``REPRO_BENCH_SCALE`` (default 1.0) scales
the library for CI smoke; the tiny recall sanity check at the bottom is
scale-independent.
"""

import os
import time

import numpy as np
import pytest
from conftest import ANN_KEYS, record_trajectory

from repro.ann import AnnConfig, CandidatePrefilter, HammingLSHIndex
from repro.hdc.packing import pack_bipolar

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
DIM = 1024
LIBRARY_ROWS = max(2_000, int(50_000 * BENCH_SCALE))
NUM_QUERIES = 64
NOISE_FRACTION = 0.05
HALF_WIDTH = 500.0
MASS_RANGE = (700.0, 3_000.0)
BUDGET_CURVE = (64, 128, 256, 512)
DEFAULT_BUDGET = 256
TIMING_ROUNDS = 3
MIN_RECALL = 0.99


class _SyntheticLibrary:
    """Random bipolar library + the exact window-scoring baseline."""

    def __init__(self, num_rows: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.hvs = (
            rng.integers(0, 2, size=(num_rows, DIM), dtype=np.int8) * 2 - 1
        ).astype(np.int8)
        self.masses = rng.uniform(*MASS_RANGE, size=num_rows)
        self.charges = np.full(num_rows, 2, dtype=np.int64)
        self.order = np.argsort(self.masses, kind="stable")
        self.sorted_masses = self.masses[self.order]
        # One float32 copy reused by both paths, so the comparison
        # times the schedules, not dtype conversions.
        self.hvs_f32 = self.hvs.astype(np.float32)
        self.sorted_hvs_f32 = self.hvs_f32[self.order]
        self.packed = pack_bipolar(self.hvs)

    def noisy_queries(self, count: int, seed: int):
        """(query_hv, query_mass, true_row) triples: 5%-flipped copies."""
        rng = np.random.default_rng(seed)
        rows = rng.choice(len(self.masses), size=count, replace=False)
        queries = []
        for row in rows:
            hv = self.hvs[row].copy()
            flips = rng.choice(
                DIM, size=max(1, int(NOISE_FRACTION * DIM)), replace=False
            )
            hv[flips] = -hv[flips]
            queries.append((hv, float(self.masses[row]), int(row)))
        return queries

    def brute_top1(self, query_hv: np.ndarray, mass: float) -> int:
        """Exact argmax over the precursor window (global row index)."""
        low = np.searchsorted(self.sorted_masses, mass - HALF_WIDTH, "left")
        high = np.searchsorted(self.sorted_masses, mass + HALF_WIDTH, "right")
        scores = self.sorted_hvs_f32[low:high] @ query_hv.astype(np.float32)
        return int(self.order[low + int(np.argmax(scores))])


def _build_prefilter(library: _SyntheticLibrary, budget: int):
    config = AnnConfig(candidate_budget=budget, ann_threshold=0)
    lsh = HammingLSHIndex.build(library.packed, DIM, config)
    return CandidatePrefilter(
        lsh, library.masses, library.charges, charge_aware=True
    )


def _ann_top1(library, prefilter, query_hv: np.ndarray, mass: float):
    """(top-1 row, scored rows) through the prefilter + exact re-rank."""
    selection = prefilter.select(query_hv, mass, 2, HALF_WIDTH)
    positions = selection.positions
    scores = library.hvs_f32[positions] @ query_hv.astype(np.float32)
    return int(positions[int(np.argmax(scores))]), len(positions)


def _best_of(func, rounds=TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _per_query_seconds(func, queries) -> float:
    def _run():
        for query_hv, mass, _true_row in queries:
            func(query_hv, mass)

    return _best_of(_run) / len(queries)


@pytest.fixture(scope="module")
def large_library():
    return _SyntheticLibrary(LIBRARY_ROWS, seed=101)


def test_bench_ann_recall_speedup_curve(large_library, capsys):
    """Budget sweep on the full library: recall, speedup, flattening."""
    library = large_library
    queries = library.noisy_queries(NUM_QUERIES, seed=77)
    brute_truth = [library.brute_top1(hv, mass) for hv, mass, _ in queries]
    brute_per_query = _per_query_seconds(
        lambda hv, mass: library.brute_top1(hv, mass), queries
    )
    mean_window = float(
        np.mean(
            [
                np.searchsorted(library.sorted_masses, m + HALF_WIDTH, "right")
                - np.searchsorted(library.sorted_masses, m - HALF_WIDTH, "left")
                for _, m, _ in queries
            ]
        )
    )

    curve = []
    default_row = None
    for budget in BUDGET_CURVE:
        prefilter = _build_prefilter(library, budget)
        # Recall against the brute-force argmax, computed once outside
        # the timed region.
        hits = 0
        scored_total = 0
        for (query_hv, mass, _true_row), truth in zip(queries, brute_truth):
            top1, scored = _ann_top1(library, prefilter, query_hv, mass)
            scored_total += scored
            hits += int(top1 == truth)
        ann_per_query = _per_query_seconds(
            lambda hv, mass, p=prefilter: _ann_top1(library, p, hv, mass),
            queries,
        )
        row = {
            "candidate_budget": budget,
            "recall_top1": round(hits / len(queries), 4),
            "brute_ms_per_query": round(1000 * brute_per_query, 4),
            "ann_ms_per_query": round(1000 * ann_per_query, 4),
            "speedup": round(brute_per_query / max(ann_per_query, 1e-12), 2),
            "candidate_ratio": round(
                scored_total / (len(queries) * mean_window), 4
            ),
        }
        curve.append(row)
        if budget == DEFAULT_BUDGET:
            default_row = row

    # 10x flattening: per-query cost growth across a 10x library step.
    small = _SyntheticLibrary(max(200, LIBRARY_ROWS // 10), seed=102)
    small_queries = small.noisy_queries(NUM_QUERIES, seed=78)
    small_brute = _per_query_seconds(
        lambda hv, mass: small.brute_top1(hv, mass), small_queries
    )
    small_prefilter = _build_prefilter(small, DEFAULT_BUDGET)
    small_ann = _per_query_seconds(
        lambda hv, mass: _ann_top1(small, small_prefilter, hv, mass),
        small_queries,
    )
    brute_growth = brute_per_query / max(small_brute, 1e-12)
    ann_growth = default_row["ann_ms_per_query"] / max(
        1000 * small_ann, 1e-9
    )

    record_trajectory(
        "BENCH_ann.json",
        {
            "bench": "ann_prefilter",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "dim": DIM,
            "library_rows": LIBRARY_ROWS,
            "num_queries": NUM_QUERIES,
            "noise_fraction": NOISE_FRACTION,
            "mean_window_rows": round(mean_window, 1),
            "curve": curve,
            "flattening": {
                "small_rows": len(small.masses),
                "brute_growth": round(brute_growth, 2),
                "ann_growth": round(ann_growth, 2),
            },
        },
        ANN_KEYS,
    )
    with capsys.disabled():
        print(
            f"\n[bench-ann] {LIBRARY_ROWS} rows @ D={DIM}, "
            f"mean window {mean_window:.0f} rows, "
            f"brute {default_row['brute_ms_per_query']:.3f} ms/query"
        )
        for row in curve:
            print(
                f"[bench-ann]   budget {row['candidate_budget']:>4}: "
                f"recall {row['recall_top1']:.4f}, "
                f"{row['ann_ms_per_query']:.3f} ms/query "
                f"({row['speedup']:.1f}x, ratio {row['candidate_ratio']})"
            )
        print(
            f"[bench-ann] 10x growth: brute {brute_growth:.1f}x, "
            f"ann {ann_growth:.1f}x"
        )

    assert default_row["recall_top1"] >= MIN_RECALL, (
        f"top-1 recall {default_row['recall_top1']} at budget "
        f"{DEFAULT_BUDGET} (need >= {MIN_RECALL})"
    )
    assert ann_growth <= 0.5 * brute_growth, (
        f"ANN per-query cost grew {ann_growth:.1f}x across the 10x "
        f"library step vs {brute_growth:.1f}x brute force — not sublinear"
    )


def test_bench_ann_recall_sanity():
    """Tiny scale-independent recall gate for CI bench smoke."""
    library = _SyntheticLibrary(2_000, seed=103)
    queries = library.noisy_queries(40, seed=79)
    prefilter = _build_prefilter(library, DEFAULT_BUDGET)
    hits = sum(
        1
        for query_hv, mass, _true_row in queries
        if _ann_top1(library, prefilter, query_hv, mass)[0]
        == library.brute_top1(query_hv, mass)
    )
    recall = hits / len(queries)
    assert recall >= MIN_RECALL, f"sanity recall {recall} < {MIN_RECALL}"
