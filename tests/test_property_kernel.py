"""Property tests for the window-scoring kernel (repro.oms.kernel).

Two oracles, both brute force:

* at the shard level, the per-query gather loop the kernel replaced is
  kept here as the reference implementation — select the window rows,
  order them by (mass, position), score every one, take the first
  maximum;
* at the searcher level, :class:`~repro.oms.search.HDOmsSearcher`, the
  engine every composition must equal PSM for PSM.

The generated libraries are small and low-dimensional on purpose:
duplicate masses, identical rows and equal-score ties are the common
case, windows are often empty, and some queries carry a charge no
library row has.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.oms.kernel as kernel_module
from repro.ann import AnnConfig, AnnRows, CandidatePrefilter
from repro.constants import PROTON_MASS
from repro.engine import EngineConfig
from repro.oms.kernel import ShardScorer, shard_payload
from repro.hdc.packing import pack_bipolar, unpack_bipolar
from repro.hdc.spaces import HDSpaceConfig
from repro.index import LibraryIndex, ShardedSearcher
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms import (
    BatchedHDOmsSearcher,
    HDOmsSearcher,
    HDSearchConfig,
    WindowConfig,
)
from repro.store import SegmentedSearcher, build_store

DIM = 64
#: Offsets (Da) from a base mass: exact duplicates, a staggered run whose
#: 0.5 Da standard windows overlap only partly, pairs that straddle the
#: 12 Da open window edge, and far outliers.
MASS_OFFSETS = (0.0, 0.0, 0.2, 0.4, 0.5, 0.6, 0.75, 1.0, 1.2, 11.5, 12.0, 12.5, 400.0)
BASE_MASS = 1000.0
#: A one-word prefix covers a 64-dimensional row: the pass is exact.
TINY_ANN = AnnConfig(prefix_words=1, candidate_budget=4, ann_threshold=2)


@contextlib.contextmanager
def tile_rows(rows: int, dim: int = DIM):
    """Shrink the kernel's XOR budget to ``rows`` packed rows per tile."""
    saved = kernel_module.SCORE_BLOCK_BYTES
    kernel_module.SCORE_BLOCK_BYTES = rows * math.ceil(dim / 8)
    try:
        yield
    finally:
        kernel_module.SCORE_BLOCK_BYTES = saved


# ----------------------------------------------------------------------
# shard level: ShardScorer vs the gather loop it replaced
# ----------------------------------------------------------------------


def gather_loop(payload, prefilter, query_hvs, query_masses, query_charges, half_width):
    """Reference ``score_batch``: one gathered window per query."""
    rows = unpack_bipolar(payload["packed"], payload["dim"]).astype(np.int64)
    masses = np.asarray(payload["masses"], dtype=np.float64)
    charges = np.asarray(payload["charges"])
    expected = []
    for hv, mass, charge in zip(query_hvs, query_masses, query_charges):
        inside = (masses >= mass - half_width) & (masses <= mass + half_width)
        if payload["charge_aware"]:
            inside &= charges == charge
        window = np.flatnonzero(inside)
        window = window[np.lexsort((window, masses[window]))]
        count = len(window)
        if prefilter is not None:
            selection = prefilter.select(hv, float(mass), int(charge), half_width)
            assert selection.window_count == count
            window = selection.positions
        if count == 0:
            expected.append((0, -np.inf, np.inf, -1))
            continue
        scores = rows[window] @ hv.astype(np.int64)
        best = int(np.argmax(scores))
        expected.append(
            (
                count,
                float(scores[best]),
                float(masses[window[best]]),
                int(payload["positions"][window[best]]),
            )
        )
    return expected


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_shard_scorer_equals_the_gather_loop(data):
    num_rows = data.draw(st.integers(1, 40), label="rows")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    # 100 and 8191 leave pad bits in the last packed byte.
    dim = data.draw(st.sampled_from([DIM, 100, 8191]), label="dim")
    rng = np.random.default_rng(seed)
    # Few distinct rows, so equal scores inside one window are routine.
    distinct = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, dim))
    hvs = distinct[rng.integers(0, len(distinct), num_rows)]
    masses = BASE_MASS + rng.choice(MASS_OFFSETS, num_rows)
    charges = rng.integers(2, 4, num_rows).astype(np.int64)
    start = data.draw(st.integers(0, 100), label="position offset")
    payload = shard_payload(
        0,
        (0, num_rows),
        pack_bipolar(hvs),
        masses,
        charges,
        dim=dim,
        charge_aware=data.draw(st.booleans(), label="charge_aware"),
        ann=data.draw(st.sampled_from([None, TINY_ANN]), label="ann"),
    )
    payload["positions"] = payload["positions"] + start
    prefilter = None
    if payload["ann"] is not None:
        prefilter = CandidatePrefilter(
            AnnRows(payload["packed"], payload["ann"]),
            masses,
            charges,
            charge_aware=payload["charge_aware"],
        )

    num_queries = data.draw(st.integers(1, 24), label="queries")
    query_hvs = distinct[rng.integers(0, len(distinct), num_queries)].copy()
    flips = rng.random(query_hvs.shape) < 0.1
    query_hvs[flips] *= -1
    query_masses = BASE_MASS + rng.choice(MASS_OFFSETS, num_queries)
    query_charges = rng.integers(2, 5, num_queries).astype(np.int64)  # 4: no bucket
    half_width = data.draw(st.sampled_from([0.0, 0.3, 0.5, 12.0, 1e9]), label="half width")

    with tile_rows(data.draw(st.sampled_from([1, 3, 1 << 12]), label="tile"), dim):
        got = ShardScorer(payload).score_batch(
            pack_bipolar(query_hvs), query_masses, query_charges, half_width
        )
    expected = gather_loop(
        payload, prefilter, query_hvs, query_masses, query_charges, half_width
    )
    assert list(zip(*(column.tolist() for column in got[:4]))) == expected
    if prefilter is None:
        assert not got[4].any() and not got[5].any()
    else:
        assert int(got[4].sum()) == num_queries


def test_a_window_that_straddles_tiles_keeps_bounds_and_tie_break():
    """Ten rows, four per tile: windows cross one or two tile edges."""
    rng = np.random.default_rng(5)
    hvs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(10, DIM))
    hvs[7] = hvs[2]  # equal rows two tiles apart: the lower row must win
    masses = BASE_MASS + np.arange(10.0)
    charges = np.full(10, 2)
    with tile_rows(4):
        kernel = kernel_module.WindowKernel(pack_bipolar(hvs), masses, charges, dim=DIM)
    assert kernel._tile == 4
    for centre, half_width in ((4, 3.0), (5, 4.0), (3, 1.0)):
        window = [row for row in range(10) if abs(row - centre) <= half_width]
        # Every row is offered as the query, also the rows just outside
        # the window: a perfect match there must not win.
        winners = kernel.search(
            pack_bipolar(hvs), np.full(10, masses[centre]), charges, half_width
        )
        assert winners.counts.tolist() == [len(window)] * 10
        for query in range(10):
            scores = hvs[window].astype(np.int64) @ hvs[query].astype(np.int64)
            assert winners.rows[query] == window[int(np.argmax(scores))]
            assert winners.scores[query] == scores.max()


def test_ann_ties_at_the_cut_keep_the_lower_mass_then_position():
    rng = np.random.default_rng(8)
    near, far = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2, 256))
    # Library positions 1, 2, 4, 5 are identical rows; the lightest is
    # position 4, then 1 and 5 share a mass (position breaks the tie).
    hvs = np.stack([far, near, near, far, near, near, far])
    masses = np.array([1000.0, 1002.0, 1003.0, 1001.0, 1000.5, 1002.0, 1004.0])
    kernel = kernel_module.WindowKernel(pack_bipolar(hvs), masses, np.full(7, 2), dim=256)
    ann = AnnConfig(prefix_words=1, candidate_budget=2, ann_threshold=0)
    winners = kernel.search(
        pack_bipolar(near[None]), np.array([1002.0]), np.array([2]), 10.0, ann
    )
    assert winners.counts.tolist() == [7]
    assert winners.ann_outcomes.tolist() == [0, 1] and winners.ann_scored_rows == 2
    # Layout rows are (mass, position)-ordered: the first maximum of the
    # shortlist is the lightest duplicate.
    assert kernel.positions[winners.rows[0]] == 4
    assert winners.scores[0] == 256


@pytest.mark.parametrize("dim", [DIM, 100, 8191])
def test_ann_bypasses_short_windows_and_equals_exact_at_full_width(dim):
    rng = np.random.default_rng(dim + 1)
    hvs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(30, dim))
    masses = BASE_MASS + rng.integers(0, 6, 30)
    charges = np.full(30, 2)
    kernel = kernel_module.WindowKernel(pack_bipolar(hvs), masses, charges, dim=dim)
    queries = hvs[:12].copy()
    queries[rng.random(queries.shape) < 0.1] *= -1
    batch = (pack_bipolar(queries), masses[:12], charges[:12], 2.0)
    exact = kernel.search(*batch)
    # A budget no window exceeds: every query bypasses (no argpartition
    # on a too-short array), bit for bit.
    bypass = kernel.search(*batch, AnnConfig(candidate_budget=30, ann_threshold=0))
    assert bypass.ann_outcomes.tolist() == [12, 0]
    assert bypass.ann_scored_rows == int(exact.counts.sum())
    # A prefix at least as wide as the row: prefiltered, still exact.
    full = kernel.search(
        *batch, AnnConfig(prefix_words=1 << 10, candidate_budget=3, ann_threshold=0)
    )
    assert full.ann_outcomes[1] > 0
    for got in (bypass, full):
        assert np.array_equal(got.rows, exact.rows)
        assert np.array_equal(got.scores, exact.scores)
        assert np.array_equal(got.counts, exact.counts)


# ----------------------------------------------------------------------
# searcher level: every engine vs brute-force HDOmsSearcher
# ----------------------------------------------------------------------

BINNING = BinningConfig()
SPACE = HDSpaceConfig(dim=DIM, num_bins=BINNING.num_bins, seed=3)
WORKLOAD = build_workload(
    WorkloadConfig(name="kernel-prop", num_references=6, num_queries=4, seed=41)
)
PATTERNS = WORKLOAD.references + WORKLOAD.queries


def _spectrum(identifier: str, pattern: int, offset: int, charge: int):
    mass = BASE_MASS + MASS_OFFSETS[offset]
    return dataclasses.replace(
        PATTERNS[pattern],
        identifier=identifier,
        precursor_charge=charge,
        precursor_mz=(mass + charge * PROTON_MASS) / charge,
    )


def _spectra(prefix: str, charges, min_size: int, max_size: int):
    return st.lists(
        st.tuples(
            st.integers(0, len(PATTERNS) - 1),
            st.integers(0, len(MASS_OFFSETS) - 1),
            st.sampled_from(charges),
        ),
        min_size=min_size,
        max_size=max_size,
    ).map(
        lambda rows: [
            _spectrum(f"{prefix}{i}", *row) for i, row in enumerate(rows)
        ]
    )


@settings(max_examples=120, deadline=None)
@given(
    references=_spectra("ref", (2, 3), 3, 24),
    queries=_spectra("query", (2, 3, 4), 1, 30),
    kind=st.sampled_from(["sharded", "segmented", "batched", "spectra"]),
    mode=st.sampled_from(["standard", "open", "cascade"]),
    parts=st.integers(1, 3),
    ann_case=st.sampled_from(["off", "full", "narrow"]),
    budget=st.integers(1, 8),
    charge_aware=st.booleans(),
    min_candidates=st.sampled_from([1, 2, 5]),
    query_ber=st.sampled_from([0.0, 0.1]),
    reference_ber=st.sampled_from([0.0, 0.1]),
    num_workers=st.sampled_from([0, 2]),
    tile=st.sampled_from([1, 5, 1 << 12]),
)
def test_every_engine_equals_brute_force(
    references, queries, kind, mode, parts, ann_case, budget, charge_aware,
    min_candidates, query_ber, reference_ber, num_workers, tile,
):
    # "full": the one-word prefix covers the 64-dimensional row, so the
    # pass must equal the *exact* oracle in every cell.  "narrow": half
    # of a 128-dimensional row, identical to the oracle running the same
    # pass — whenever the true top-1 is shortlisted it is the winner.
    ann = None
    if ann_case != "off":
        ann = AnnConfig(prefix_words=1, candidate_budget=budget, ann_threshold=2)
    if kind in ("batched", "spectra") or ann_case == "narrow":
        # Each shard shortlists its own rows; only one shard sees exactly
        # the rows (and so the shortlist) the oracle's prefilter sees.
        parts = 1
    space = dataclasses.replace(SPACE, dim=2 * DIM) if ann_case == "narrow" else SPACE
    index = LibraryIndex.build(references, space_config=space, binning=BINNING)
    parts = min(parts, index.num_references)
    windows = WindowConfig(
        standard_tolerance_da=0.5, open_window_da=12.0, charge_aware=charge_aware
    )
    # Queries of charge 4 have no library bucket: they must still draw
    # their BER flips, or every later query's noise diverges.
    if kind == "segmented":
        reference_ber = 0.0  # SegmentedSearcher rejects reference_ber
    config = HDSearchConfig(
        mode=mode, ann=ann, min_candidates=min_candidates, query_ber=query_ber,
        reference_ber=reference_ber,
    )
    oracle = config if ann_case == "narrow" else dataclasses.replace(config, ann=None)
    expected = HDOmsSearcher.from_index(index, windows=windows, config=oracle).search(queries)

    engine = EngineConfig(num_shards=parts, num_workers=num_workers)
    with tile_rows(tile, space.dim), tempfile.TemporaryDirectory() as scratch:
        if kind == "batched":
            searcher = BatchedHDOmsSearcher.from_index(
                index,
                windows=windows,
                mode=mode,
                ann=ann,
                min_candidates=min_candidates,
                query_ber=query_ber,
                reference_ber=reference_ber,
                engine=engine,
            )
        elif kind == "spectra":
            # The raw-spectra constructor OmsPipeline, the experiments
            # and `repro search` build on: it encodes the library itself.
            searcher = BatchedHDOmsSearcher(
                index.make_encoder(),
                references,
                windows=windows,
                mode=mode,
                ann=ann,
                min_candidates=min_candidates,
                query_ber=query_ber,
                reference_ber=reference_ber,
            )
        elif kind == "sharded":
            searcher = ShardedSearcher(
                index, windows=windows, config=config, engine=engine
            )
        else:
            store = build_store(
                references,
                Path(scratch) / "store",
                space_config=space,
                binning=BINNING,
                segment_rows=math.ceil(index.num_references / parts),
            )
            searcher = SegmentedSearcher(
                store, windows=windows, config=config, engine=engine
            )
        with searcher:
            got = searcher.search(queries)
            assert searcher.arena_nbytes == 0
        if kind == "segmented":
            store.close()
    assert got.psms == expected.psms
    assert got.num_unmatched == expected.num_unmatched


def test_batched_draws_ber_for_queries_without_a_charge_bucket():
    """The reported scenario: 40 queries, BER 0.3, the first one charge 9.

    The batched searcher used to drop such a query before noise
    injection, skipping its RNG draw: 39 of 39 PSMs then differed from
    the oracle while the sharded searcher matched.
    """
    workload = build_workload(
        WorkloadConfig(name="ber-skew", num_references=150, num_queries=40, seed=61)
    )
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(dim=1024, num_bins=BINNING.num_bins, seed=8),
        binning=BINNING,
    )
    queries = list(workload.queries)
    queries[0] = dataclasses.replace(queries[0], precursor_charge=9)
    config = HDSearchConfig(query_ber=0.3)
    expected = HDOmsSearcher.from_index(index, config=config).search(queries).psms
    assert len(expected) == 39
    assert BatchedHDOmsSearcher.from_index(index, query_ber=0.3).search(queries).psms == expected
    with ShardedSearcher(index, config=config) as sharded:
        assert sharded.search(queries).psms == expected


def test_one_query_pass_under_all_three_searchers():
    """Batched, Sharded and Segmented only say how rows are laid out."""
    from repro.oms.loop import FanOutSearcher

    for searcher in (BatchedHDOmsSearcher, ShardedSearcher, SegmentedSearcher):
        for name in ("search", "_search_batch", "_run_pass", "_scorer"):
            assert getattr(searcher, name) is getattr(FanOutSearcher, name), (
                searcher.__name__, name,
            )
    # One execution mode: parts are scored in-process, serially or on
    # the core's threads, for all three (only the coordinator's remote
    # parts replace how parts are mapped).
    for searcher in (BatchedHDOmsSearcher, ShardedSearcher, SegmentedSearcher):
        assert searcher._map_parts is FanOutSearcher._map_parts, searcher.__name__


def test_thread_mode_needs_no_arena():
    """Threads score the parent's own row views: nothing in /dev/shm."""
    index = LibraryIndex.build(WORKLOAD.references, space_config=SPACE, binning=BINNING)
    expected = HDOmsSearcher.from_index(index).search(WORKLOAD.queries).psms
    engine = EngineConfig(kind="sharded", num_shards=2, num_workers=2)
    shm = Path("/dev/shm")
    before = set(shm.iterdir()) if shm.is_dir() else set()
    with ShardedSearcher(index, engine=engine) as searcher:
        assert searcher.executor_kind == "thread"
        assert searcher.search(WORKLOAD.queries).psms == expected
        assert searcher.arena_nbytes == 0
        assert searcher._pool is not None  # really scored on the thread pool
        assert not shm.is_dir() or set(shm.iterdir()) <= before


def test_one_shard_default_searcher_is_serial_and_reopens():
    """`--shards 1` with auto workers resolves to one worker: no pool."""
    index = LibraryIndex.build(WORKLOAD.references, space_config=SPACE, binning=BINNING)
    expected = HDOmsSearcher.from_index(index).search(WORKLOAD.queries).psms
    engine = EngineConfig(kind="sharded", num_shards=1, num_workers=None)
    shm = Path("/dev/shm")
    before = set(shm.iterdir()) if shm.is_dir() else set()
    with ShardedSearcher(index, engine=engine) as searcher:
        assert searcher.executor_kind == "serial"
        # Rows are laid out by the first pass (overlapping the next
        # micro-batch's encode), not by the constructor.
        assert not searcher._scorers
        assert searcher.search(WORKLOAD.queries).psms == expected
        assert searcher.arena_nbytes == 0
        assert searcher._pool is None
        assert not shm.is_dir() or set(shm.iterdir()) <= before
        searcher.close()
        assert searcher.search(WORKLOAD.queries).psms == expected


def test_a_warm_searcher_holds_packed_rows_only():
    """One representation: no float32 copy, and no knob that asks for one."""
    workload = build_workload(
        WorkloadConfig(name="packed-only", num_references=400, num_queries=1, seed=3)
    )
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(dim=8192, num_bins=BINNING.num_bins, seed=3),
        binning=BINNING,
    )
    encoder = index.make_encoder()
    # The candidate tier reads the kernel's own rows: nothing is built.
    for ann in (None, AnnConfig()):
        tracemalloc.start()
        try:
            with ShardedSearcher(
                index, encoder=encoder, config=HDSearchConfig(ann=ann)
            ) as searcher:
                searcher.warm()
                _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * index.packed.nbytes  # float32 rows would be 32x
    with pytest.raises(TypeError):
        EngineConfig(backend="packed")
    with pytest.raises(TypeError):
        EngineConfig(score_block_rows=64)
