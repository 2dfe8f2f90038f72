"""Tests for the truncated-precision candidate pass (`repro.ann`).

Covers the config validation, the one shortlist function (budget, the
tie rule at the cut, full-width prefixes, odd row widths), the
standalone prefilter's two outcomes — bypass under ``ann_threshold`` or
at most ``candidate_budget`` rows, prefiltered otherwise (the same
cases through the window kernel are in ``test_property_kernel.py``),
archives written by builds that still persisted LSH tables, the searcher and service wiring, a recall floor
on realistic queries, and a hypothesis property pinning the exact
re-rank to brute force on the shortlisted rows.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import AnnConfig, AnnRows, AnnStats, CandidatePrefilter, shortlist
from repro.hdc.packing import pack_bipolar
from repro.index.library import LibraryIndex
from repro.oms.search import HDOmsSearcher, HDSearchConfig, PackedBackend

DIM = 256


def _random_bipolar(rng, rows, dim=DIM):
    return (rng.integers(0, 2, size=(rows, dim), dtype=np.int8) * 2 - 1).astype(
        np.int8
    )


def _flipped(rng, hv, flips):
    noisy = hv.copy()
    positions = rng.choice(len(hv), size=flips, replace=False)
    noisy[positions] = -noisy[positions]
    return noisy


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"prefix_words": 0},
        {"prefix_words": -1},
        {"candidate_budget": 0},
        {"ann_threshold": -1},
        # The Hamming-LSH knobs are gone, not silently accepted.
        {"num_tables": 4},
        {"bits_per_hash": 8},
        {"multiprobe_radius": 1},
        {"seed": 3},
    ],
)
def test_ann_config_rejects_bad_knobs(kwargs):
    with pytest.raises((TypeError, ValueError)):
        AnnConfig(**kwargs)


def test_ann_config_defaults_are_valid():
    config = AnnConfig()
    assert (config.prefix_words, config.candidate_budget, config.ann_threshold) == (
        32, 256, 1024,
    )
    assert config.prefix_bytes == 256
    assert config.shortlists(1024) and not config.shortlists(1023)
    # A window the budget already covers has nothing to cut.
    assert not AnnConfig(ann_threshold=0, candidate_budget=8).shortlists(8)


# ----------------------------------------------------------------------
# the shortlist function
# ----------------------------------------------------------------------


def test_shortlist_keeps_the_budget_nearest_rows_ascending():
    rng = np.random.default_rng(3)
    hvs = _random_bipolar(rng, 128)
    config = AnnConfig(prefix_words=1, candidate_budget=5, ann_threshold=0)
    for row in (0, 13, 127):
        kept = shortlist(pack_bipolar(hvs), pack_bipolar(hvs[row]), config)
        assert len(kept) == 5 and np.all(np.diff(kept) > 0)
        # An identical row has prefix distance 0: always shortlisted.
        assert row in kept
    # Tiling the XOR never changes the result.
    noisy = pack_bipolar(_flipped(rng, hvs[7], 40))
    whole = shortlist(pack_bipolar(hvs), noisy, config)
    for block_rows in (1, 3, 1 << 12):
        assert np.array_equal(
            shortlist(pack_bipolar(hvs), noisy, config, block_rows), whole
        )


def test_shortlist_ties_at_the_cut_keep_the_lower_row():
    rng = np.random.default_rng(4)
    near, far = _random_bipolar(rng, 2)
    # Rows 1, 3, 4, 6, 8 tie at distance 0; the budget cuts among them.
    hvs = np.stack([far, near, far, near, near, far, near, far, near])
    config = AnnConfig(prefix_words=4, candidate_budget=3, ann_threshold=0)
    kept = shortlist(pack_bipolar(hvs), pack_bipolar(near), config)
    assert kept.tolist() == [1, 3, 4]


@pytest.mark.parametrize("dim", [64, 100, 8191])
def test_shortlist_handles_any_row_width(dim):
    """13- and 1024-byte rows; prefixes narrower and wider than the row."""
    rng = np.random.default_rng(dim)
    hvs = _random_bipolar(rng, 40, dim)
    hvs[30] = hvs[10]  # an exact duplicate: the lower row must win
    query = _flipped(rng, hvs[10], dim // 16)
    packed, packed_query = pack_bipolar(hvs), pack_bipolar(query)
    scores = hvs.astype(np.int64) @ query.astype(np.int64)
    for words in (1, 2, 1 << 10):
        config = AnnConfig(prefix_words=words, candidate_budget=4, ann_threshold=0)
        kept = shortlist(packed, packed_query, config)
        assert len(kept) == 4 and np.all(np.diff(kept) > 0)
        if words * 64 >= dim:
            # A prefix covering the row ranks by the exact score.
            assert kept[int(np.argmax(scores[kept]))] == int(np.argmax(scores)) == 10


# ----------------------------------------------------------------------
# prefilter outcomes
# ----------------------------------------------------------------------


def _prefilter_fixture(rows=64, seed=5, **config_kwargs):
    rng = np.random.default_rng(seed)
    hvs = _random_bipolar(rng, rows)
    kwargs = {"prefix_words": 1, "candidate_budget": 16, "ann_threshold": 0}
    kwargs.update(config_kwargs)
    masses = rng.uniform(800.0, 1200.0, size=rows)
    charges = np.full(rows, 2, dtype=np.int64)
    prefilter = CandidatePrefilter(
        AnnRows(pack_bipolar(hvs), AnnConfig(**kwargs)), masses, charges
    )
    return hvs, masses, prefilter


def test_prefilter_bypasses_small_windows():
    """Windows under ``ann_threshold`` return the full window, exact."""
    hvs, masses, prefilter = _prefilter_fixture(ann_threshold=10_000)
    selection = prefilter.select(hvs[0], float(masses[0]), 2, 500.0)
    assert selection.outcome == "bypass"
    assert selection.window_count == len(masses)
    assert len(selection.positions) == len(masses)
    # Positions come back in (mass, position) order — brute force's.
    assert np.all(np.diff(masses[selection.positions]) >= 0)


def test_prefilter_bypasses_windows_the_budget_covers():
    """No ``argpartition`` on an array no longer than the budget."""
    hvs, masses, prefilter = _prefilter_fixture(candidate_budget=64)
    selection = prefilter.select(hvs[0], float(masses[0]), 2, 500.0)
    assert selection.outcome == "bypass"
    assert len(selection.positions) == selection.window_count == 64


def test_prefilter_empty_window_is_a_bypass():
    hvs, masses, prefilter = _prefilter_fixture()
    selection = prefilter.select(hvs[0], 50_000.0, 2, 1.0)
    assert selection.outcome == "bypass"
    assert selection.window_count == 0
    assert len(selection.positions) == 0


def test_prefilter_unknown_charge_is_a_bypass():
    hvs, masses, prefilter = _prefilter_fixture()
    selection = prefilter.select(hvs[0], float(masses[0]), 7, 500.0)
    assert selection.outcome == "bypass"
    assert selection.window_count == 0


def test_prefilter_prefiltered_rows_lie_in_window():
    hvs, masses, prefilter = _prefilter_fixture()
    selection = prefilter.select(hvs[3], float(masses[3]), 2, 150.0)
    assert selection.outcome == "prefiltered"
    assert len(selection.positions) == 16 < selection.window_count
    assert 3 in selection.positions
    assert np.all(np.abs(masses[selection.positions] - masses[3]) <= 150.0)
    # (mass, position) order reproduces the exact scorer's tie-break.
    assert np.all(np.diff(masses[selection.positions]) >= 0)


def test_prefilter_rejects_metadata_length_mismatch():
    rows = AnnRows(pack_bipolar(_random_bipolar(np.random.default_rng(0), 16)), AnnConfig())
    with pytest.raises(ValueError, match="disagree"):
        CandidatePrefilter(rows, np.zeros(15), np.zeros(15, dtype=np.int64))


def test_ann_stats_accumulates_and_rejects_unknown():
    stats = AnnStats()
    stats.record("bypass", 10, 10)
    stats.record("prefiltered", 100, 8)
    stats.record_batch(np.array([1, 2]), 50, 30)
    assert stats.snapshot() == {
        "bypassed": 2, "prefiltered": 3, "window_rows": 160, "scored_rows": 48,
    }
    with pytest.raises(KeyError):
        stats.record("fallback", 1, 1)


# ----------------------------------------------------------------------
# library-index persistence: nothing of the tier is stored
# ----------------------------------------------------------------------


def _space_config():
    from repro.hdc.spaces import HDSpaceConfig
    from repro.ms.vectorize import BinningConfig

    return HDSpaceConfig(dim=512, num_bins=BinningConfig().num_bins, seed=4)


@pytest.fixture(scope="module")
def small_workload_module():
    from repro.ms.synthetic import WorkloadConfig, build_workload

    return build_workload(
        WorkloadConfig(name="ann-test", num_references=80, num_queries=20, seed=31)
    )


SMALL_ANN = AnnConfig(prefix_words=2, candidate_budget=8, ann_threshold=0)


def test_index_without_ann_loads_none(small_workload_module, tmp_path):
    index = LibraryIndex.build(
        small_workload_module.references, space_config=_space_config()
    )
    assert index.attach_ann(SMALL_ANN).packed is index.packed
    path = index.save(tmp_path / "plain.npz")
    with np.load(path) as archive:
        assert not [name for name in archive.files if name.startswith("ann")]
    loaded = LibraryIndex.load(path)
    assert loaded.ann is None
    assert "ann" not in loaded.provenance()


def test_archive_with_old_ann_members_opens_and_searches_identically(
    small_workload_module, tmp_path
):
    """Archives of LSH-era builds still carry ``ann_*``; it is never read."""
    index = LibraryIndex.build(
        small_workload_module.references, space_config=_space_config()
    )
    path = index.save(tmp_path / "new.npz")
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    provenance = json.loads(str(members["provenance_json"][()]))
    provenance["ann"] = {"format_version": 1, "num_rows": 7, "config": {"num_tables": 4}}
    members["provenance_json"] = np.array(json.dumps(provenance))
    members["ann_json"] = np.array(json.dumps(provenance["ann"]))
    members["ann_bit_positions"] = np.zeros((4, 8), dtype=np.int64)
    members["ann_sorted_keys"] = np.zeros((4, 7), dtype=np.uint64)
    np.savez(tmp_path / "old.npz", **members)
    old = LibraryIndex.load(tmp_path / "old.npz")
    assert old.ann is None and old.provenance() == index.provenance()
    for config in (HDSearchConfig(), HDSearchConfig(ann=SMALL_ANN)):
        expected = HDOmsSearcher.from_index(index, config=config).search(
            small_workload_module.queries
        )
        got = HDOmsSearcher.from_index(old, config=config).search(
            small_workload_module.queries
        )
        assert got.psms == expected.psms


# ----------------------------------------------------------------------
# searcher wiring
# ----------------------------------------------------------------------


def test_searcher_with_huge_threshold_matches_brute_force(
    small_workload_module,
):
    """ann_threshold larger than any window → every query bypasses."""
    from repro.hdc.encoder import SpectrumEncoder
    from repro.hdc.spaces import HDSpace
    from repro.ms.vectorize import BinningConfig

    encoder = SpectrumEncoder(HDSpace(_space_config()), BinningConfig())
    workload = small_workload_module
    brute = HDOmsSearcher(encoder, workload.references)
    ann = HDOmsSearcher(
        encoder,
        workload.references,
        config=HDSearchConfig(ann=AnnConfig(ann_threshold=10**9)),
    )
    brute_result = brute.search(workload.queries)
    ann_result = ann.search(workload.queries)
    assert [
        (p.query_id, p.reference_id, p.score) for p in brute_result.psms
    ] == [(p.query_id, p.reference_id, p.score) for p in ann_result.psms]
    snapshot = ann.ann_stats.snapshot()
    assert snapshot["prefiltered"] == 0
    assert snapshot["bypassed"] > 0


def test_service_set_ann_toggles_engine_and_clears_cache(
    small_workload_module, tmp_path
):
    """set_ann swaps the engine, flips labels/stats, and re-serves."""
    from repro.engine import EngineConfig
    from repro.service.server import SearchService, ServiceConfig

    index = LibraryIndex.build(
        small_workload_module.references, space_config=_space_config()
    )
    path = index.save(tmp_path / "svc.npz")
    with SearchService(
        path, ServiceConfig(engine_config=EngineConfig(ann=SMALL_ANN))
    ) as service:
        assert service.engine_name == "shardedx1+ann"
        first = service.search_many(small_workload_module.queries[:6])
        ann_section = service.stats()["engine"]["ann"]
        assert ann_section["enabled"] is True
        assert ann_section["prefiltered"] > 0
        assert "fallbacks" not in ann_section
        label = service.set_ann(False)
        assert label == "shardedx1"
        assert service.stats()["engine"]["ann"] == {"enabled": False}
        exact = service.search_many(small_workload_module.queries[:6])
        assert len(exact) == len(first)
        # Re-enable without an explicit config: the remembered one
        # comes back (2 prefix words, not the 32-word default).
        assert service.set_ann(True) == "shardedx1+ann"
        assert service.config.resolved_ann() == SMALL_ANN
        # No-op toggle keeps the engine untouched.
        generation = service._generation
        assert service.set_ann(True) == "shardedx1+ann"
        assert service._generation == generation


def test_default_config_recalls_the_top1_of_realistic_queries():
    """45% modified / 10% foreign queries, windows above ``ann_threshold``."""
    from repro.hdc.spaces import HDSpaceConfig
    from repro.ms.synthetic import WorkloadConfig, build_workload
    from repro.ms.vectorize import BinningConfig
    from repro.oms import BatchedHDOmsSearcher

    workload = build_workload(
        WorkloadConfig(
            name="ann-recall",
            num_references=2600,
            num_queries=120,
            seed=11,
            modification_probability=0.45,
            foreign_fraction=0.10,
            # One charge and a ~1.2 kDa mass span: every +-500 Da window
            # holds more than 1024 rows.
            charges=(2,),
            charge_weights=(1.0,),
            min_length=10,
            max_length=16,
        )
    )
    index = LibraryIndex.build(
        workload.references,
        space_config=HDSpaceConfig(dim=8192, num_bins=BinningConfig().num_bins, seed=2),
    )
    exact = HDOmsSearcher.from_index(index, backend=PackedBackend()).search(
        workload.queries
    )
    searcher = BatchedHDOmsSearcher.from_index(index, ann=AnnConfig())
    got = {psm.query_id: psm for psm in searcher.search(workload.queries).psms}
    snapshot = searcher.ann_stats.snapshot()
    assert snapshot["prefiltered"] >= 115  # a foreign mass may sit at the edge
    assert snapshot["scored_rows"] < 0.35 * snapshot["window_rows"]
    modified = {
        query.identifier
        for query in workload.queries
        if query.peptide is not None and query.peptide.is_modified
    }
    for subset in (
        exact.psms, [psm for psm in exact.psms if psm.query_id in modified]
    ):
        assert len(subset) >= 40
        hits = sum(got.get(psm.query_id) == psm for psm in subset)
        assert hits >= 0.97 * len(subset), (hits, len(subset))


# ----------------------------------------------------------------------
# hypothesis: exact re-rank == brute force on the shortlist
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(8, 48),
    half_width=st.floats(10.0, 500.0),
    flips=st.integers(0, 64),
)
def test_rerank_matches_brute_force_on_shortlist(seed, rows, half_width, flips):
    """Whenever brute force's winner survives the shortlist, the
    prefiltered argmax picks the *same row* — ties included — because
    selections come back in the exact scorer's (mass, position) order."""
    rng = np.random.default_rng(seed)
    hvs = _random_bipolar(rng, rows)
    masses = rng.uniform(900.0, 1100.0, size=rows)
    charges = np.full(rows, 2, dtype=np.int64)
    config = AnnConfig(prefix_words=1, ann_threshold=0, candidate_budget=6)
    prefilter = CandidatePrefilter(
        AnnRows(pack_bipolar(hvs), config), masses, charges, charge_aware=True
    )

    base = int(rng.integers(0, rows))
    query = _flipped(rng, hvs[base], flips)
    mass = float(masses[base])

    # Brute force: stable (mass, position) candidate order, argmax.
    order = np.lexsort((np.arange(rows), masses))
    in_window = np.abs(masses[order] - mass) <= half_width
    window_positions = order[in_window]
    selection = prefilter.select(query, mass, 2, half_width)

    if len(window_positions) == 0:
        assert selection.window_count == 0
        return
    window_scores = hvs[window_positions].astype(np.int32) @ query.astype(
        np.int32
    )
    brute_winner = int(window_positions[int(np.argmax(window_scores))])

    assert selection.window_count == len(window_positions)
    # The shortlist is always a subset of the window, in window order.
    shortlist_rows = selection.positions
    bypassed = selection.outcome == "bypass"
    assert bypassed == (len(window_positions) <= 6)
    assert len(shortlist_rows) == (len(window_positions) if bypassed else 6)
    assert set(shortlist_rows).issubset(set(window_positions))
    order_of = {int(p): i for i, p in enumerate(window_positions)}
    assert [order_of[int(p)] for p in shortlist_rows] == sorted(
        order_of[int(p)] for p in shortlist_rows
    )

    shortlist_scores = hvs[shortlist_rows].astype(np.int32) @ query.astype(np.int32)
    ann_winner = int(shortlist_rows[int(np.argmax(shortlist_scores))])
    if brute_winner in set(int(p) for p in shortlist_rows):
        assert ann_winner == brute_winner
