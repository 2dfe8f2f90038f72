"""Tests for the Hamming-LSH candidate prefilter (`repro.ann`).

Covers the config validation, the LSH index itself (determinism,
persistence round-trip, provenance checks), the prefilter's three
outcomes — bypass under ``ann_threshold``, fallback on an empty
shortlist, prefiltered otherwise — the library-index persistence
plumbing, the searcher wiring, and a hypothesis property pinning the
exact re-rank to brute force on the shortlisted rows.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import (
    ANN_FORMAT_VERSION,
    AnnConfig,
    AnnStats,
    CandidatePrefilter,
    HammingLSHIndex,
)
from repro.hdc.packing import pack_bipolar
from repro.index.library import IndexCompatibilityError, LibraryIndex
from repro.oms.search import HDOmsSearcher, HDSearchConfig

DIM = 256


def _random_bipolar(rng, rows, dim=DIM):
    return (rng.integers(0, 2, size=(rows, dim), dtype=np.int8) * 2 - 1).astype(
        np.int8
    )


def _small_lsh(rows=64, seed=3, **config_kwargs):
    rng = np.random.default_rng(seed)
    hvs = _random_bipolar(rng, rows)
    kwargs = {"num_tables": 4, "bits_per_hash": 8, "ann_threshold": 0}
    kwargs.update(config_kwargs)
    config = AnnConfig(**kwargs)
    return hvs, HammingLSHIndex.build(pack_bipolar(hvs), DIM, config)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_tables": 0},
        {"bits_per_hash": 0},
        {"bits_per_hash": 33},
        {"multiprobe_radius": -1},
        {"multiprobe_radius": 3},
        {"multiprobe_radius": 2, "bits_per_hash": 1},
        {"candidate_budget": 0},
        {"ann_threshold": -1},
    ],
)
def test_ann_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        AnnConfig(**kwargs)


def test_ann_config_defaults_are_valid():
    config = AnnConfig()
    assert config.num_tables == 8
    assert config.bits_per_hash == 16
    assert config.candidate_budget == 256


# ----------------------------------------------------------------------
# LSH index
# ----------------------------------------------------------------------


def test_lsh_build_is_deterministic():
    hvs, lsh = _small_lsh()
    _, again = _small_lsh()
    rng = np.random.default_rng(9)
    query = hvs[17]
    assert np.array_equal(lsh.query(query), again.query(query))
    noisy = query.copy()
    flips = rng.choice(DIM, size=12, replace=False)
    noisy[flips] = -noisy[flips]
    assert np.array_equal(lsh.query(noisy), again.query(noisy))


def test_lsh_exact_row_is_always_shortlisted():
    """A query identical to a library row collides in every table."""
    hvs, lsh = _small_lsh()
    for row in (0, 13, 63):
        assert row in lsh.query(hvs[row])


def test_lsh_respects_candidate_budget():
    hvs, lsh = _small_lsh(rows=128, candidate_budget=5)
    shortlist = lsh.query(hvs[0])
    assert 0 < len(shortlist) <= 5


def test_lsh_rejects_mismatched_packed_shape():
    rng = np.random.default_rng(0)
    hvs = _random_bipolar(rng, 8)
    with pytest.raises(ValueError, match="does not match dim"):
        HammingLSHIndex.build(pack_bipolar(hvs), DIM * 2)


def test_lsh_rejects_dim_smaller_than_key():
    rng = np.random.default_rng(0)
    hvs = _random_bipolar(rng, 8, dim=8)
    with pytest.raises(ValueError, match="smaller than bits_per_hash"):
        HammingLSHIndex.build(pack_bipolar(hvs), 8, AnnConfig(bits_per_hash=16))


def test_lsh_array_roundtrip_preserves_queries():
    hvs, lsh = _small_lsh()
    rebuilt = HammingLSHIndex.from_arrays(lsh.provenance(), lsh.to_arrays())
    for row in (1, 30):
        assert np.array_equal(lsh.query(hvs[row]), rebuilt.query(hvs[row]))


def test_lsh_from_arrays_rejects_bad_version():
    _, lsh = _small_lsh()
    provenance = lsh.provenance()
    provenance["format_version"] = ANN_FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="format version"):
        HammingLSHIndex.from_arrays(provenance, lsh.to_arrays())


def test_lsh_from_arrays_rejects_row_mismatch():
    _, lsh = _small_lsh()
    provenance = lsh.provenance()
    provenance["num_rows"] = lsh.num_rows + 1
    with pytest.raises(ValueError, match="rows"):
        HammingLSHIndex.from_arrays(provenance, lsh.to_arrays())


# ----------------------------------------------------------------------
# prefilter outcomes
# ----------------------------------------------------------------------


def _prefilter_fixture(rows=64, seed=5, **config_kwargs):
    rng = np.random.default_rng(seed)
    hvs, lsh = _small_lsh(rows=rows, seed=seed, **config_kwargs)
    masses = rng.uniform(800.0, 1200.0, size=rows)
    charges = np.full(rows, 2, dtype=np.int64)
    prefilter = CandidatePrefilter(lsh, masses, charges, charge_aware=True)
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
    selection = prefilter.select(hvs[3], float(masses[3]), 2, 100.0)
    assert selection.outcome == "prefiltered"
    assert 3 in selection.positions
    assert np.all(np.abs(masses[selection.positions] - masses[3]) <= 100.0)
    # Sorted ranks reproduce the exact scorer's tie-break order.
    assert np.all(np.diff(selection.ranks) > 0)


class _EmptyShortlistLSH:
    """Stub LSH whose shortlist always misses (forces the fallback)."""

    def __init__(self, num_rows, config):
        self.num_rows = num_rows
        self.config = config

    def query(self, query_hv):
        return np.empty(0, dtype=np.int64)


def test_prefilter_empty_shortlist_falls_back_to_full_window():
    """An empty shortlist must degrade to brute force, never to a miss."""
    rng = np.random.default_rng(11)
    rows = 32
    masses = rng.uniform(900.0, 1100.0, size=rows)
    charges = np.full(rows, 2, dtype=np.int64)
    lsh = _EmptyShortlistLSH(rows, AnnConfig(ann_threshold=0))
    prefilter = CandidatePrefilter(lsh, masses, charges, charge_aware=True)
    selection = prefilter.select(
        _random_bipolar(rng, 1)[0], float(masses[0]), 2, 500.0
    )
    assert selection.outcome == "fallback"
    assert selection.window_count == len(selection.positions)
    assert set(selection.positions) == set(
        np.flatnonzero(np.abs(masses - masses[0]) <= 500.0)
    )


def test_prefilter_rejects_metadata_length_mismatch():
    _, lsh = _small_lsh(rows=16)
    with pytest.raises(ValueError, match="disagree"):
        CandidatePrefilter(
            lsh, np.zeros(15), np.zeros(15, dtype=np.int64), charge_aware=True
        )


def test_ann_stats_accumulates_and_rejects_unknown():
    stats = AnnStats()
    stats.record("bypass", 10, 10)
    stats.record("prefiltered", 100, 8)
    stats.record_batch(np.array([1, 0, 2]), 50, 30)
    snapshot = stats.snapshot()
    assert snapshot["bypassed"] == 2
    assert snapshot["prefiltered"] == 1
    assert snapshot["fallbacks"] == 2
    assert snapshot["window_rows"] == 160
    assert snapshot["scored_rows"] == 48
    with pytest.raises(KeyError):
        stats.record("nope", 1, 1)


# ----------------------------------------------------------------------
# library-index persistence
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ann_index(small_workload_module):
    index = LibraryIndex.build(
        small_workload_module.references,
        space_config=_space_config(),
        ann=AnnConfig(num_tables=4, bits_per_hash=8, ann_threshold=0),
    )
    return index


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


def test_index_roundtrips_ann_tables(ann_index, tmp_path):
    path = ann_index.save(tmp_path / "lib.npz")
    loaded = LibraryIndex.load(path)
    assert loaded.ann is not None
    assert loaded.ann.config == ann_index.ann.config
    assert loaded.ann.num_rows == ann_index.num_references
    assert "ANN 4x8b" in loaded.summary()
    assert loaded.provenance()["ann"] == ann_index.provenance()["ann"]


def test_index_without_ann_loads_none(small_workload_module, tmp_path):
    index = LibraryIndex.build(
        small_workload_module.references, space_config=_space_config()
    )
    loaded = LibraryIndex.load(index.save(tmp_path / "plain.npz"))
    assert loaded.ann is None
    assert loaded.provenance()["ann"] is None


def test_index_load_rejects_tampered_ann_provenance(ann_index, tmp_path):
    """A corrupted persisted ANN section must raise, not half-load."""
    path = ann_index.save(tmp_path / "lib.npz")
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    provenance = json.loads(str(members["ann_json"][()]))
    provenance["num_rows"] = provenance["num_rows"] + 1
    members["ann_json"] = np.array(json.dumps(provenance))
    tampered = tmp_path / "tampered.npz"
    np.savez(tampered, **members)
    with pytest.raises(IndexCompatibilityError, match="ANN"):
        LibraryIndex.load(tampered)


def test_index_load_rejects_missing_ann_arrays(ann_index, tmp_path):
    path = ann_index.save(tmp_path / "lib.npz")
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    del members["ann_sorted_keys"]
    broken = tmp_path / "broken.npz"
    np.savez(broken, **members)
    with pytest.raises(IndexCompatibilityError, match="ANN"):
        LibraryIndex.load(broken)


def test_index_rejects_foreign_ann_tables(small_workload_module):
    """Constructor refuses tables whose rows disagree with the index."""
    index = LibraryIndex.build(
        small_workload_module.references, space_config=_space_config()
    )
    rng = np.random.default_rng(6)
    foreign = HammingLSHIndex.build(
        pack_bipolar(_random_bipolar(rng, index.num_references + 3, dim=512)),
        512,
        AnnConfig(num_tables=2, bits_per_hash=8),
    )
    with pytest.raises(IndexCompatibilityError, match="ANN"):
        LibraryIndex(
            packed=index.packed,
            dim=index.dim,
            identifiers=index.identifiers,
            peptide_keys=index.peptide_keys,
            is_decoy=index.is_decoy,
            neutral_masses=index.neutral_masses,
            charges=index.charges,
            space_config=index.space_config,
            binning=index.binning,
            preprocessing=index.preprocessing,
            ann=foreign,
        )


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
    assert snapshot["fallbacks"] == 0
    assert snapshot["bypassed"] > 0


def test_searcher_reuses_persisted_tables(ann_index):
    searcher = HDOmsSearcher.from_index(
        ann_index,
        config=HDSearchConfig(ann=ann_index.ann.config),
    )
    assert searcher._prefilter is not None
    assert searcher._prefilter.lsh is ann_index.ann


def test_searcher_rebuilds_on_config_mismatch(ann_index):
    other = AnnConfig(num_tables=2, bits_per_hash=8, ann_threshold=0)
    searcher = HDOmsSearcher.from_index(
        ann_index, config=HDSearchConfig(ann=other)
    )
    assert searcher._prefilter is not None
    assert searcher._prefilter.lsh is not ann_index.ann
    assert searcher._prefilter.lsh.config == other


def test_service_set_ann_toggles_engine_and_clears_cache(
    small_workload_module, tmp_path
):
    """set_ann swaps the engine, flips labels/stats, and re-serves."""
    from repro.engine import EngineConfig
    from repro.service.server import SearchService, ServiceConfig

    index = LibraryIndex.build(
        small_workload_module.references,
        space_config=_space_config(),
        ann=AnnConfig(num_tables=4, bits_per_hash=8, ann_threshold=0),
    )
    path = index.save(tmp_path / "svc.npz")
    with SearchService(
        path,
        ServiceConfig(
            engine_config=EngineConfig(
                ann=AnnConfig(num_tables=4, bits_per_hash=8, ann_threshold=0)
            )
        ),
    ) as service:
        assert service.engine_name == "shardedx1+ann"
        first = service.search_many(small_workload_module.queries[:6])
        ann_section = service.stats()["engine"]["ann"]
        assert ann_section["enabled"] is True
        assert (
            ann_section["prefiltered"]
            + ann_section["fallbacks"]
            + ann_section["bypassed"]
            > 0
        )
        label = service.set_ann(False)
        assert label == "shardedx1"
        assert service.stats()["engine"]["ann"] == {"enabled": False}
        exact = service.search_many(small_workload_module.queries[:6])
        assert len(exact) == len(first)
        # Re-enable without an explicit config: the remembered one
        # comes back (4 tables, not the 8-table default).
        assert service.set_ann(True) == "shardedx1+ann"
        assert service.config.resolved_ann().num_tables == 4
        # No-op toggle keeps the engine untouched.
        generation = service._generation
        assert service.set_ann(True) == "shardedx1+ann"
        assert service._generation == generation


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
    config = AnnConfig(
        num_tables=4, bits_per_hash=8, ann_threshold=0, candidate_budget=16
    )
    lsh = HammingLSHIndex.build(pack_bipolar(hvs), DIM, config)
    prefilter = CandidatePrefilter(lsh, masses, charges, charge_aware=True)

    base = int(rng.integers(0, rows))
    query = hvs[base].copy()
    if flips:
        positions = rng.choice(DIM, size=min(flips, DIM), replace=False)
        query[positions] = -query[positions]
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
    shortlist = selection.positions
    assert set(shortlist).issubset(set(window_positions))
    order_of = {int(p): i for i, p in enumerate(window_positions)}
    assert [order_of[int(p)] for p in shortlist] == sorted(
        order_of[int(p)] for p in shortlist
    )

    shortlist_scores = hvs[shortlist].astype(np.int32) @ query.astype(np.int32)
    ann_winner = int(shortlist[int(np.argmax(shortlist_scores))])
    if brute_winner in set(int(p) for p in shortlist):
        assert ann_winner == brute_winner
