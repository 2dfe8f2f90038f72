"""Tests for the persistent library index and the sharded searcher."""

import numpy as np
import pytest

from repro.engine import EngineConfig
from repro.hdc.encoder import SpectrumEncoder
from repro.hdc.spaces import HDSpace, HDSpaceConfig
from repro.index import (
    IndexCompatibilityError,
    LibraryIndex,
    ReferenceRecord,
    ShardedSearcher,
)
from repro.ms.preprocessing import PreprocessingConfig
from repro.ms.synthetic import WorkloadConfig, build_workload
from repro.ms.vectorize import BinningConfig
from repro.oms.batch import BatchedHDOmsSearcher
from repro.oms.candidates import WindowConfig
from repro.oms.pipeline import OmsPipeline, PipelineConfig
from repro.oms.search import HDOmsSearcher, HDSearchConfig, PackedBackend


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        WorkloadConfig(
            name="index-test", num_references=180, num_queries=36, seed=41
        )
    )


@pytest.fixture(scope="module")
def space_config(binning):
    return HDSpaceConfig(
        dim=512, num_bins=binning.num_bins, num_levels=8, seed=13
    )


@pytest.fixture(scope="module")
def encoder(space_config, binning):
    return SpectrumEncoder(HDSpace(space_config), binning)


@pytest.fixture(scope="module")
def index(workload, space_config, binning):
    return LibraryIndex.build(
        workload.references,
        space_config=space_config,
        binning=binning,
        chunk_size=48,
        source="unit-test",
    )


@pytest.fixture(scope="module")
def baseline_result(workload, encoder):
    return HDOmsSearcher(encoder, workload.references).search(workload.queries)


class TestBuild:
    def test_matches_searcher_encoding(self, workload, encoder, index):
        searcher = HDOmsSearcher(encoder, workload.references)
        assert np.array_equal(index.hypervectors(), searcher.reference_hvs)

    def test_chunk_size_invariant(self, workload, space_config, binning, index):
        small_chunks = LibraryIndex.build(
            workload.references,
            space_config=space_config,
            binning=binning,
            chunk_size=7,
        )
        assert np.array_equal(small_chunks.packed, index.packed)
        assert small_chunks.identifiers == index.identifiers

    def test_metadata_preserves_library_order(self, workload, index):
        # References that survive preprocessing keep their input order.
        identifiers = [ref.identifier for ref in workload.references]
        positions = [identifiers.index(name) for name in index.identifiers]
        assert positions == sorted(positions)

    def test_records_quack_like_spectra(self, index):
        record = index.records()[0]
        assert isinstance(record, ReferenceRecord)
        assert isinstance(record.identifier, str)
        assert record.precursor_charge >= 1
        assert record.peptide_key() == record.peptide

    def test_rejects_bad_chunk_size(self, workload, space_config, binning):
        with pytest.raises(ValueError, match="chunk_size"):
            LibraryIndex.build(
                workload.references,
                space_config=space_config,
                binning=binning,
                chunk_size=0,
            )


class TestRoundtrip:
    def test_save_load_bit_exact(self, index, tmp_path):
        path = index.save(tmp_path / "library.npz")
        loaded = LibraryIndex.load(path)
        assert np.array_equal(np.asarray(loaded.packed), np.asarray(index.packed))
        assert np.array_equal(loaded.hypervectors(), index.hypervectors())
        assert loaded.identifiers == index.identifiers
        assert loaded.peptide_keys == index.peptide_keys
        assert np.array_equal(loaded.is_decoy, index.is_decoy)
        assert np.array_equal(loaded.neutral_masses, index.neutral_masses)
        assert np.array_equal(loaded.charges, index.charges)

    def test_roundtrip_preserves_configs(self, index, tmp_path):
        loaded = LibraryIndex.load(index.save(tmp_path / "library.npz"))
        assert loaded.space_config == index.space_config
        assert loaded.binning == index.binning
        assert loaded.preprocessing == index.preprocessing
        assert loaded.source == "unit-test"

    def test_load_memory_maps_packed_matrix(self, index, tmp_path):
        loaded = LibraryIndex.load(index.save(tmp_path / "library.npz"))
        assert isinstance(loaded.packed, np.memmap)

    def test_load_without_mmap(self, index, tmp_path):
        loaded = LibraryIndex.load(
            index.save(tmp_path / "library.npz"), mmap=False
        )
        assert not isinstance(loaded.packed, np.memmap)
        assert np.array_equal(np.asarray(loaded.packed), np.asarray(index.packed))

    def test_save_appends_npz_suffix(self, index, tmp_path):
        path = index.save(tmp_path / "bare-name")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.arange(4))
        with pytest.raises(IndexCompatibilityError):
            LibraryIndex.load(path)


def _unreadable_index(index, tmp_path, fault):
    """A path that cannot be loaded, the way ``fault`` says."""
    if fault == "missing":
        return tmp_path / "nope.npz"
    if fault == "truncated":
        whole = index.save(tmp_path / "mono.npz").read_bytes()
        path = tmp_path / "trunc.npz"
        path.write_bytes(whole[:20000])
        return path
    if fault == "member-missing":
        with np.load(index.save(tmp_path / "mono.npz")) as archive:
            members = {name: archive[name] for name in archive.files}
        del members["neutral_masses"]
        np.savez(tmp_path / "partial.npz", **members)
        return tmp_path / "partial.npz"
    path = tmp_path / "library.msp"  # "not-an-index": a text file
    path.write_text("Name: PEPTIDE/2\nNum peaks: 1\n100.0 1.0\n" * 40)
    return path


@pytest.mark.parametrize(
    "fault", ["missing", "truncated", "member-missing", "not-an-index"]
)
class TestUnreadableIndexFile:
    """A monolithic index that cannot be read ends typed, never in a PSM."""

    def test_load_raises_the_typed_error_naming_the_file(self, index, tmp_path, fault):
        path = _unreadable_index(index, tmp_path, fault)
        with pytest.raises(IndexCompatibilityError, match=path.name):
            LibraryIndex.load(path)

    def test_cli_reports_one_line_and_exits_2(
        self, index, workload, tmp_path, capsys, fault
    ):
        from repro.cli import main
        from repro.ms import write_mgf

        write_mgf(workload.queries, tmp_path / "queries.mgf")
        path = _unreadable_index(index, tmp_path, fault)
        output = tmp_path / "psms.tsv"
        capsys.readouterr()
        assert main(
            ["index", "search", "--index", str(path), "--queries",
             str(tmp_path / "queries.mgf"), "--output", str(output)]
        ) == 2
        captured = capsys.readouterr()
        report = captured.err.splitlines()[-1]
        assert report.startswith("index search: ") and path.name in report
        assert "Traceback" not in captured.err
        assert "accepted" not in captured.out and not output.exists()


class TestValidation:
    def test_matching_configs_pass(self, index, space_config, binning):
        index.validate(space_config, binning, index.preprocessing)

    def test_space_mismatch_raises(self, index, binning):
        other = HDSpaceConfig(
            dim=1024, num_bins=binning.num_bins, num_levels=8, seed=13
        )
        with pytest.raises(IndexCompatibilityError, match="space"):
            index.validate(space_config=other)

    def test_binning_mismatch_raises(self, index):
        with pytest.raises(IndexCompatibilityError, match="binning"):
            index.validate(binning=BinningConfig(bin_width=0.5))

    def test_preprocessing_mismatch_raises(self, index):
        with pytest.raises(IndexCompatibilityError, match="preprocessing"):
            index.validate(preprocessing=PreprocessingConfig(max_peaks=10))

    def test_from_index_rejects_foreign_encoder(self, index, binning):
        other = SpectrumEncoder(
            HDSpace(
                HDSpaceConfig(
                    dim=1024, num_bins=binning.num_bins, num_levels=8, seed=13
                )
            ),
            binning,
        )
        with pytest.raises(IndexCompatibilityError):
            HDOmsSearcher.from_index(index, encoder=other)


class TestFromIndex:
    def test_searcher_psms_identical(self, index, workload, baseline_result):
        result = HDOmsSearcher.from_index(index).search(workload.queries)
        assert result.psms == baseline_result.psms
        assert result.num_unmatched == baseline_result.num_unmatched

    def test_searcher_from_loaded_file(
        self, index, workload, baseline_result, tmp_path
    ):
        loaded = LibraryIndex.load(index.save(tmp_path / "library.npz"))
        result = HDOmsSearcher.from_index(loaded).search(workload.queries)
        assert result.psms == baseline_result.psms

    def test_packed_backend(self, index, workload, encoder):
        expected = HDOmsSearcher(
            encoder, workload.references, backend=PackedBackend()
        ).search(workload.queries)
        result = HDOmsSearcher.from_index(
            index, backend=PackedBackend()
        ).search(workload.queries)
        assert result.psms == expected.psms

    def test_cascade_mode(self, index, workload, encoder):
        config = HDSearchConfig(mode="cascade")
        expected = HDOmsSearcher(
            encoder, workload.references, config=config
        ).search(workload.queries)
        result = HDOmsSearcher.from_index(index, config=config).search(
            workload.queries
        )
        assert result.psms == expected.psms

    def test_batched_searcher_identical(self, index, workload, encoder):
        expected = BatchedHDOmsSearcher(encoder, workload.references).search(
            workload.queries
        )
        result = BatchedHDOmsSearcher.from_index(index).search(workload.queries)
        assert result.psms == expected.psms

    def test_charge_agnostic_windows_identical(self, index, workload, encoder):
        # Regression: charge_aware=False used to crash the batched
        # searcher (queries keyed to bucket 0, references to real charge).
        windows = WindowConfig(charge_aware=False)
        expected = HDOmsSearcher(
            encoder, workload.references, windows=windows
        ).search(workload.queries)
        batched = BatchedHDOmsSearcher.from_index(
            index, windows=windows
        ).search(workload.queries)
        assert batched.psms == expected.psms
        sharded = ShardedSearcher(
            index, windows=windows, engine=EngineConfig(num_shards=2)
        ).search(workload.queries)
        assert sharded.psms == expected.psms

    def test_pipeline_from_index(self, index, workload, encoder):
        # The index already holds the library as-is (no decoys here, so
        # FDR accepts nothing — the point is wiring, not identifications).
        pipeline = OmsPipeline.from_index(index, config=PipelineConfig())
        result = pipeline.run(workload.queries, workload.truth)
        direct = HDOmsSearcher.from_index(index).search(workload.queries)
        # The FDR stage annotates q-values in place; compare identities.
        def key(psm):
            return (psm.query_id, psm.reference_id, psm.score, psm.mode)

        assert list(map(key, result.search_result.psms)) == list(
            map(key, direct.psms)
        )
        assert "index_load" in result.timings


class TestShardedSearcher:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_psms_identical_serial(
        self, index, workload, baseline_result, num_shards
    ):
        searcher = ShardedSearcher(
            index, engine=EngineConfig(num_shards=num_shards)
        )
        result = searcher.search(workload.queries)
        assert result.psms == baseline_result.psms
        assert result.num_unmatched == baseline_result.num_unmatched
        assert result.num_queries == baseline_result.num_queries

    def test_psms_identical_process_pool(
        self, index, workload, baseline_result
    ):
        with ShardedSearcher(
            index, engine=EngineConfig(num_shards=3, num_workers=2)
        ) as searcher:
            first = searcher.search(workload.queries)
            second = searcher.search(workload.queries)
        assert first.psms == baseline_result.psms
        assert second.psms == baseline_result.psms

    def test_packed_backend_identical(
        self, index, workload, encoder
    ):
        expected = HDOmsSearcher(
            encoder, workload.references, backend=PackedBackend()
        ).search(workload.queries)
        searcher = ShardedSearcher(index, engine=EngineConfig(num_shards=2))
        assert searcher.search(workload.queries).psms == expected.psms

    @pytest.mark.parametrize("mode", ["standard", "cascade"])
    def test_modes_identical(self, index, workload, encoder, mode):
        config = HDSearchConfig(mode=mode)
        expected = HDOmsSearcher(
            encoder, workload.references, config=config
        ).search(workload.queries)
        searcher = ShardedSearcher(
            index, config=config, engine=EngineConfig(num_shards=2)
        )
        result = searcher.search(workload.queries)
        assert result.psms == expected.psms
        assert result.num_unmatched == expected.num_unmatched

    def test_bit_error_injection_identical(self, index, workload, encoder):
        config = HDSearchConfig(
            query_ber=0.02, reference_ber=0.01, noise_seed=314
        )
        expected = HDOmsSearcher(
            encoder, workload.references, config=config
        ).search(workload.queries)
        searcher = ShardedSearcher(
            index, config=config, engine=EngineConfig(num_shards=2)
        )
        assert searcher.search(workload.queries).psms == expected.psms

    def test_backend_name_reports_shards(self, index):
        searcher = ShardedSearcher(index, engine=EngineConfig(num_shards=2))
        assert searcher.backend_name == "shardedx2"

    def test_rejects_bad_shard_counts(self, index):
        with pytest.raises(ValueError):
            EngineConfig(num_shards=0)
        with pytest.raises(ValueError, match="cannot split"):
            ShardedSearcher(
                index, engine=EngineConfig(num_shards=index.num_references + 1)
            )

    def test_rejects_unknown_backend(self, index):
        with pytest.raises(TypeError, match="backend"):
            EngineConfig(num_shards=2, backend="gpu")


class TestIndexCli:
    def test_build_then_search(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "workload",
                    "--preset",
                    "custom",
                    "--references",
                    "80",
                    "--queries",
                    "15",
                    "--seed",
                    "3",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        index_path = tmp_path / "library.npz"
        assert (
            main(
                [
                    "index",
                    "build",
                    "--library",
                    str(tmp_path / "library.msp"),
                    "--output",
                    str(index_path),
                    "--dim",
                    "512",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert index_path.exists()
        output = tmp_path / "psms.tsv"
        assert (
            main(
                [
                    "index",
                    "search",
                    "--index",
                    str(index_path),
                    "--queries",
                    str(tmp_path / "queries.mgf"),
                    "--shards",
                    "2",
                    "--workers",
                    "0",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "encoding skipped" in out
        lines = output.read_text().splitlines()
        assert lines[0].startswith("query_id\treference_id")
        assert len(lines) > 1

    def test_index_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["index", "search", "--index", "i.npz", "--queries", "q.mgf"]
        )
        assert args.shards == 1
        assert args.workers is None
        # Scoring is packed XOR/popcount: the engine verbs take no
        # --backend (only `repro search`, the oracle/RRAM verb, does).
        assert not hasattr(args, "backend")
        assert not hasattr(args, "score_block_rows")
