"""Tests for the hdoms command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_search_defaults(self):
        args = build_parser().parse_args(
            ["search", "--library", "l.msp", "--queries", "q.mgf"]
        )
        assert args.dim == 8192
        assert args.id_bits == 3
        assert args.mode == "open"
        assert args.backend == "dense"

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "--library", "l", "--queries", "q", "--backend", "gpu"]
            )


class TestInfo:
    def test_info_prints_version(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "hdoms" in out
        assert "DAC 2024" in out

    def test_info_lists_every_subcommand(self, capsys):
        assert main(["info"]) == 0
        listed = capsys.readouterr().out.split("subcommands", 1)[1]
        listed = {name.strip() for name in listed.split(":", 1)[1].split(",")}
        (commands,) = [
            action.choices
            for action in build_parser()._actions
            if action.dest == "command"
        ]
        assert "coordinate" in commands
        assert listed == set(commands)


class TestWorkloadCommand:
    def test_generates_files(self, tmp_path, capsys):
        code = main(
            [
                "workload",
                "--preset",
                "custom",
                "--references",
                "50",
                "--queries",
                "10",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "library.msp").exists()
        assert (tmp_path / "queries.mgf").exists()
        truth = (tmp_path / "truth.tsv").read_text().splitlines()
        assert truth[0] == "query_id\ttrue_peptide"
        assert len(truth) == 11

    def test_preset_scaling(self, tmp_path):
        main(
            [
                "workload",
                "--preset",
                "iprg2012",
                "--scale",
                "0.01",
                "--output-dir",
                str(tmp_path),
            ]
        )
        msp = (tmp_path / "library.msp").read_text()
        assert msp.count("Name:") == 40  # 4000 * 0.01


class TestSearchCommand:
    def test_end_to_end_files(self, tmp_path, capsys):
        main(
            [
                "workload",
                "--preset",
                "custom",
                "--references",
                "120",
                "--queries",
                "25",
                "--seed",
                "3",
                "--output-dir",
                str(tmp_path),
            ]
        )
        output = tmp_path / "psms.tsv"
        code = main(
            [
                "search",
                "--library",
                str(tmp_path / "library.msp"),
                "--queries",
                str(tmp_path / "queries.mgf"),
                "--dim",
                "1024",
                "--output",
                str(output),
                "--seed",
                "3",
            ]
        )
        assert code == 0
        lines = output.read_text().splitlines()
        assert lines[0].startswith("query_id\treference_id")
        assert len(lines) > 5  # found real matches
        out = capsys.readouterr().out
        assert "accepted" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--index", "i.npz"])
        assert args.host == "127.0.0.1"
        assert args.port == 8337
        assert args.cache_size == 1024
        assert args.mode == "open"

    def test_micro_batch_flags_defer_to_service_config(self):
        from repro.cli import _service_config_from_args
        from repro.service import ServiceConfig

        parse = build_parser().parse_args
        config = _service_config_from_args(parse(["serve", "--index", "i.npz"]))
        assert config.max_batch == ServiceConfig.max_batch
        assert config.max_wait_ms == ServiceConfig.max_wait_ms == 0.0
        config = _service_config_from_args(
            parse(
                ["serve", "--index", "i.npz", "--max-batch", "4", "--max-wait-ms", "2.5"]
            )
        )
        assert (config.max_batch, config.max_wait_ms) == (4, 2.5)

    def test_serve_requires_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_rejects_bad_flag_value(self, capsys):
        code = main(["serve", "--index", "idx.npz", "--shards", "0"])
        assert code == 2
        assert "num_shards" in capsys.readouterr().err

    def test_serve_has_no_engine_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--index", "i.npz", "--engine", "auto"])

    def test_serve_reports_missing_index(self, tmp_path, capsys):
        code = main(["serve", "--index", str(tmp_path / "nope.npz")])
        assert code == 2
        assert "serve:" in capsys.readouterr().err


class TestIndexSearchJsonl:
    @pytest.fixture(scope="class")
    def built_index(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("jsonl-cli")
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
        assert (
            main(
                [
                    "index",
                    "build",
                    "--library",
                    str(tmp_path / "library.msp"),
                    "--output",
                    str(tmp_path / "library.npz"),
                    "--dim",
                    "512",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        return tmp_path

    def test_jsonl_streams_all_psms(self, built_index, tmp_path):
        import json

        output = tmp_path / "psms.jsonl"
        code = main(
            [
                "index",
                "search",
                "--index",
                str(built_index / "library.npz"),
                "--queries",
                str(built_index / "queries.mgf"),
                "--output",
                str(output),
                "--output-format",
                "jsonl",
                "--chunk-size",
                "4",
            ]
        )
        assert code == 0
        from repro.oms.psm import PSM

        psms = [
            PSM.from_dict(json.loads(line))
            for line in output.read_text().splitlines()
        ]
        assert len(psms) > 5
        # Pre-FDR stream: q-values are never assigned.
        assert all(psm.q_value is None for psm in psms)
        # Chunked streaming must not change any PSM: compare against a
        # direct one-shot search over the same index.
        from repro.index import LibraryIndex
        from repro.ms.mgf import read_mgf
        from repro.oms.search import HDOmsSearcher

        index = LibraryIndex.load(built_index / "library.npz")
        queries = list(read_mgf(built_index / "queries.mgf"))
        direct = HDOmsSearcher.from_index(index).search(queries)
        assert psms == direct.psms

    def test_jsonl_to_stdout_keeps_stream_clean(self, built_index, capsys):
        import json

        code = main(
            [
                "index",
                "search",
                "--index",
                str(built_index / "library.npz"),
                "--queries",
                str(built_index / "queries.mgf"),
                "--output-format",
                "jsonl",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # stdout is pure JSONL; all chatter went to stderr.
        for line in captured.out.splitlines():
            json.loads(line)
        assert "loaded index" in captured.err

    def test_explicit_fdr_with_jsonl_warns(
        self, built_index, tmp_path, capsys
    ):
        code = main(
            [
                "index",
                "search",
                "--index",
                str(built_index / "library.npz"),
                "--queries",
                str(built_index / "queries.mgf"),
                "--output",
                str(tmp_path / "psms.jsonl"),
                "--output-format",
                "jsonl",
                "--fdr",
                "0.05",
            ]
        )
        assert code == 0
        assert "--fdr is ignored" in capsys.readouterr().err

    def test_rejects_bad_chunk_size(self, built_index):
        code = main(
            [
                "index",
                "search",
                "--index",
                str(built_index / "library.npz"),
                "--queries",
                str(built_index / "queries.mgf"),
                "--chunk-size",
                "0",
            ]
        )
        assert code == 2


@pytest.mark.parametrize("index", ["missing", "random-bytes"])
def test_profile_on_an_unreadable_index_is_one_line_and_exit_2(
    tmp_path, small_workload, capsys, index
):
    from repro.ms import write_mgf

    queries, trace = tmp_path / "q.mgf", tmp_path / "trace.json"
    write_mgf(small_workload.queries[:2], queries)
    path = tmp_path / "nope.npz"
    if index == "random-bytes":
        path.write_bytes(bytes(range(256)) * 78 + bytes(32))  # 20 000 bytes
    code = main(
        ["profile", "--index", str(path), "--queries", str(queries), "--output", str(trace)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines()[-1].startswith("profile: ")
    assert "Traceback" not in captured.err
    assert not trace.exists()


@pytest.mark.parametrize("capacity", ["0", "-1"])
def test_profile_rejects_a_bad_trace_capacity(
    tmp_path, small_workload, capsys, capacity
):
    """Like serve and coordinate: one stderr line, exit 2, no trace file."""
    from repro.hdc.spaces import HDSpaceConfig
    from repro.index import LibraryIndex
    from repro.ms import write_mgf
    from repro.ms.vectorize import BinningConfig

    binning = BinningConfig()
    index = LibraryIndex.build(
        small_workload.references,
        space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=3),
        binning=binning,
    ).save(tmp_path / "library.npz")
    queries, trace = tmp_path / "q.mgf", tmp_path / "trace.json"
    write_mgf(small_workload.queries[:2], queries)
    capsys.readouterr()  # only what the verb itself prints is checked
    code = main(
        [
            "profile", "--index", str(index), "--queries", str(queries),
            "--output", str(trace), "--trace-capacity", capacity,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        f"profile: --trace-capacity must be >= 1, got {capacity}"
    ]
    assert not trace.exists()


def test_executor_flag_is_gone():
    """One execution mode: no verb takes --executor."""
    for argv in (
        ["index", "search", "--index", "i.npz", "--queries", "q.mgf"],
        ["index", "append", "--store", "s", "--library", "l.msp"],
        ["index", "merge", "--store", "s"],
        ["serve", "--index", "i.npz"],
        ["profile", "--index", "i.npz", "--queries", "q.mgf"],
    ):
        build_parser().parse_args(argv)  # the verb parses without it
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--executor", "thread"])


class TestExperimentCommand:
    def test_fig12_runs(self, capsys):
        assert main(["experiment", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Energy efficiency" in out
        assert "this-work-mlc-rram" in out

    def test_fig7_runs(self, capsys):
        assert main(["experiment", "fig7"]) == 0
        assert "Bit error rate" in capsys.readouterr().out


def _corrupt_last_spectrum(source, target, value):
    """Copy a peak file, setting six intensities of its last spectrum to ``value``.

    The last spectrum goes bad, so everything before it has already been
    read (and, for streaming verbs, flushed) when the error surfaces.
    """
    lines = source.read_text().splitlines()
    peak_rows = [row for row, line in enumerate(lines) if line[:1].isdigit()]
    block_starts = [
        row for row, line in enumerate(lines)
        if line == "BEGIN IONS" or line.startswith("Name:")
    ]
    last = [row for row in peak_rows if row > block_starts[-1]][:6]
    for row in last:
        fields = lines[row].split()
        lines[row] = "\t".join([fields[0], value, *fields[2:]])
    target.write_text("\n".join(lines) + "\n")
    return target


@pytest.mark.parametrize("value", ["inf", "nan", "-5.0"])
class TestMalformedInputFiles:
    """A library or query file with a bad peak: one line, exit 2, nothing written."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("malformed-cli")
        assert main(
            ["workload", "--preset", "custom", "--references", "40", "--queries",
             "10", "--seed", "5", "--output-dir", str(tmp_path)]
        ) == 0
        assert main(
            ["index", "build", "--library", str(tmp_path / "library.msp"),
             "--output", str(tmp_path / "library.npz"), "--dim", "512", "--seed", "5"]
        ) == 0
        assert main(
            ["index", "build", "--library", str(tmp_path / "library.msp"),
             "--output", str(tmp_path / "store"), "--segment-rows", "16",
             "--dim", "512", "--seed", "5"]
        ) == 0
        return tmp_path

    @staticmethod
    def _fails_in_one_line(capsys, verb, argv):
        capsys.readouterr()
        assert main(["index", verb, *argv]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        report = captured.err.splitlines()[-1]
        assert report.startswith(f"index {verb}: ")
        return report

    def test_search_query_file(self, files, tmp_path, capsys, value):
        queries = _corrupt_last_spectrum(
            files / "queries.mgf", tmp_path / "bad.mgf", value
        )
        for extra in ([], ["--output-format", "jsonl", "--chunk-size", "2"]):
            output = tmp_path / "psms.out"
            report = self._fails_in_one_line(
                capsys, "search",
                ["--index", str(files / "library.npz"), "--queries", str(queries),
                 "--output", str(output), *extra],
            )
            assert "bad.mgf" in report
            assert not output.exists()

    def test_build_library_file(self, files, tmp_path, capsys, value):
        library = _corrupt_last_spectrum(
            files / "library.msp", tmp_path / "bad.msp", value
        )
        for output, extra in (
            (tmp_path / "bad.npz", []),
            (tmp_path / "bad-store", ["--segment-rows", "8"]),
        ):
            report = self._fails_in_one_line(
                capsys, "build",
                ["--library", str(library), "--output", str(output), "--dim", "512",
                 *extra],
            )
            assert "bad.msp" in report
            assert not output.exists()

    def test_append_library_file_leaves_the_store_as_it_was(
        self, files, tmp_path, capsys, value
    ):
        import shutil

        store = tmp_path / "store"
        shutil.copytree(files / "store", store)
        before = sorted(path.name for path in store.rglob("*"))
        manifest = (store / "manifest.json").read_bytes()
        library = _corrupt_last_spectrum(
            files / "library.msp", tmp_path / "bad.msp", value
        )
        self._fails_in_one_line(
            capsys, "append",
            ["--store", str(store), "--library", str(library), "--segment-rows", "8"],
        )
        assert sorted(path.name for path in store.rglob("*")) == before
        assert (store / "manifest.json").read_bytes() == manifest


def test_malformed_mgf_structure_is_one_line_and_exit_2(tmp_path, capsys):
    queries = tmp_path / "broken.mgf"
    queries.write_text("END IONS\n")
    library = tmp_path / "library.msp"
    assert main(
        ["workload", "--preset", "custom", "--references", "20", "--queries", "2",
         "--seed", "5", "--output-dir", str(tmp_path)]
    ) == 0
    assert main(
        ["index", "build", "--library", str(library), "--output",
         str(tmp_path / "library.npz"), "--dim", "256"]
    ) == 0
    capsys.readouterr()
    output = tmp_path / "psms.tsv"
    assert main(
        ["index", "search", "--index", str(tmp_path / "library.npz"), "--queries",
         str(queries), "--output", str(output)]
    ) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith("index search: ")
    assert "END IONS" in captured.err and not output.exists()
