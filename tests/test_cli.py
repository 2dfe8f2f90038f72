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
        assert args.backend == "packed"

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

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("search-cli")
        assert main(
            ["workload", "--preset", "custom", "--references", "120", "--queries",
             "25", "--seed", "3", "--output-dir", str(tmp_path)]
        ) == 0
        return tmp_path

    @pytest.mark.parametrize("mode", ["open", "standard", "cascade"])
    def test_default_tsv_equals_the_dense_oracle(self, files, tmp_path, mode):
        """`repro search` runs the fan-out core; its TSV is the oracle's."""
        from repro.cli import _write_psm_tsv
        from repro.constants import DEFAULT_STANDARD_WINDOW_DA
        from repro.hdc import HDSpace, HDSpaceConfig, SpectrumEncoder
        from repro.ms import BinningConfig, append_decoys, decoy_factory, read_mgf, read_msp
        from repro.oms import DenseBackend, HDOmsSearcher, HDSearchConfig, WindowConfig
        from repro.oms import grouped_fdr

        output = tmp_path / "psms.tsv"
        assert main(
            ["search", "--library", str(files / "library.msp"), "--queries",
             str(files / "queries.mgf"), "--dim", "1024", "--seed", "3",
             "--mode", mode, "--output", str(output)]
        ) == 0
        binning = BinningConfig()
        space = HDSpaceConfig(dim=1024, num_bins=binning.num_bins, seed=3)
        library = append_decoys(
            list(read_msp(files / "library.msp")), decoy_factory(3), seed=3
        )
        oracle = HDOmsSearcher(
            SpectrumEncoder(HDSpace(space), binning),
            library,
            windows=WindowConfig(standard_tolerance_da=DEFAULT_STANDARD_WINDOW_DA),
            config=HDSearchConfig(mode=mode),
            backend=DenseBackend(),
        )
        result = oracle.search(list(read_mgf(files / "queries.mgf")))
        expected = tmp_path / "oracle.tsv"
        _write_psm_tsv(expected, grouped_fdr(result.psms, 0.01))
        assert len(expected.read_text().splitlines()) > 5
        assert output.read_bytes() == expected.read_bytes()

    def test_dense_backend_is_gone(self, files, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["search", "--library", str(files / "library.msp"), "--queries",
                 str(files / "queries.mgf"), "--backend", "dense"]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: 'dense'" in capsys.readouterr().err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--index", "i.npz"])
        assert args.host == "127.0.0.1"
        assert args.port == 8337
        assert args.cache_size == 1024
        assert args.mode == "open"

    @pytest.mark.parametrize("flag", ["--max-batch", "--max-wait-ms"])
    def test_removed_batcher_flag_exits_2(self, flag, capsys):
        # The micro-batcher has no knobs: it dispatches whatever is
        # queued, up to 32 spectra, whenever the engine is idle.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--index", "i.npz", flag, "4"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err

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


def test_profile_trace_names_the_run_on_every_encode_block(tmp_path, small_workload):
    """A run longer than one encode block keeps its request id on every block."""
    import json

    from repro.hdc.spaces import HDSpaceConfig
    from repro.index import LibraryIndex
    from repro.ms import write_mgf
    from repro.ms.vectorize import BinningConfig
    from repro.oms.candidates import ENCODE_BLOCK_SIZE

    binning = BinningConfig()
    index = LibraryIndex.build(
        small_workload.references,
        space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=3),
        binning=binning,
    ).save(tmp_path / "library.npz")
    count = ENCODE_BLOCK_SIZE + 44
    queries, trace = tmp_path / "q.mgf", tmp_path / "trace.json"
    repeats = count // len(small_workload.queries) + 1
    write_mgf((small_workload.queries * repeats)[:count], queries)
    argv = [
        "profile", "--index", str(index), "--queries", str(queries),
        "--output", str(trace), "--mode", "standard", "--shards", "2", "--workers", "2",
    ]
    assert main(argv) == 0
    events = [e for e in json.loads(trace.read_text())["traceEvents"] if e["ph"] == "X"]
    (run,) = [e for e in events if e["name"] == "profile.run"]
    encodes = [e for e in events if e["name"] == "encode.batch"]
    assert len(encodes) == 2
    assert {e["args"].get("request_id") for e in encodes} == {run["args"]["request_id"]}


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


#: One case per verb that reads a spectra file: (verb as reported,
#: argv builder over the fixture directory, the missing path and the
#: output path).
_MISSING_INPUT_CASES = {
    "index-search-npz": (
        "index search",
        lambda files, missing, out: [
            "index", "search", "--index", files / "library.npz",
            "--queries", missing, "--output", out,
        ],
    ),
    "index-search-store": (
        "index search",
        lambda files, missing, out: [
            "index", "search", "--index", files / "store",
            "--queries", missing, "--output", out,
        ],
    ),
    "index-search-jsonl": (
        "index search",
        lambda files, missing, out: [
            "index", "search", "--index", files / "library.npz",
            "--queries", missing, "--output", out, "--output-format", "jsonl",
        ],
    ),
    "index-build-npz": (
        "index build",
        lambda files, missing, out: [
            "index", "build", "--library", missing, "--output", out, "--dim", "512",
        ],
    ),
    "index-build-store": (
        "index build",
        lambda files, missing, out: [
            "index", "build", "--library", missing, "--output", out,
            "--dim", "512", "--segment-rows", "8",
        ],
    ),
    "index-append": (
        "index append",
        lambda files, missing, out: [
            "index", "append", "--store", out, "--library", missing,
        ],
    ),
    "search-library": (
        "search",
        lambda files, missing, out: [
            "search", "--library", missing, "--queries", files / "queries.mgf",
            "--output", out, "--dim", "512",
        ],
    ),
    "search-queries": (
        "search",
        lambda files, missing, out: [
            "search", "--library", files / "library.msp", "--queries", missing,
            "--output", out, "--dim", "512",
        ],
    ),
    "profile": (
        "profile",
        lambda files, missing, out: [
            "profile", "--index", files / "library.npz", "--queries", missing,
            "--output", out,
        ],
    ),
}


class TestMissingInputFiles:
    """A ``--queries`` / ``--library`` path that does not exist ends typed.

    Like an unreadable ``--index``: one ``<verb>: cannot read PATH: ...``
    line on stderr, exit 2, no traceback and nothing written.
    """

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("missing-input-cli")
        assert main(
            ["workload", "--preset", "custom", "--references", "30", "--queries",
             "5", "--seed", "6", "--output-dir", str(tmp_path)]
        ) == 0
        assert main(
            ["index", "build", "--library", str(tmp_path / "library.msp"),
             "--output", str(tmp_path / "library.npz"), "--dim", "512", "--seed", "6"]
        ) == 0
        assert main(
            ["index", "build", "--library", str(tmp_path / "library.msp"),
             "--output", str(tmp_path / "store"), "--segment-rows", "16",
             "--dim", "512", "--seed", "6"]
        ) == 0
        return tmp_path

    @pytest.mark.parametrize("case", sorted(_MISSING_INPUT_CASES))
    def test_one_line_exit_2_nothing_written(self, files, tmp_path, capsys, case):
        import shutil

        verb, argv = _MISSING_INPUT_CASES[case]
        missing, out = tmp_path / "missing.mgf", tmp_path / "out"
        if verb == "index append":
            shutil.copytree(files / "store", out)
        before = sorted(path.name for path in tmp_path.rglob("*"))
        manifest = (out / "manifest.json").read_bytes() if out.is_dir() else None
        capsys.readouterr()
        assert main([str(arg) for arg in argv(files, missing, out)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            f"{verb}: cannot read {missing}: No such file or directory"
        )
        assert sorted(path.name for path in tmp_path.rglob("*")) == before
        if manifest is not None:
            assert (out / "manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("case", ["search-library", "index-build-npz", "index-build-store"])
    def test_library_with_no_usable_spectrum(self, files, tmp_path, capsys, case):
        """A library none of whose spectra survives preprocessing ends typed too."""
        verb, argv = _MISSING_INPUT_CASES[case]
        library, out = tmp_path / "one-peak.msp", tmp_path / "out"
        library.write_text(
            "Name: PEPTIDEK/2\nMW: 927.45\nComment: Parent=464.73\n"
            "Num peaks: 1\n200.1\t100\n\n"
        )
        before = sorted(path.name for path in tmp_path.rglob("*"))
        capsys.readouterr()
        args = [str(arg) for arg in argv(files, library, out)] + ["--no-decoys"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            f"{verb}: {library}: no reference spectrum survived preprocessing"
        )
        assert sorted(path.name for path in tmp_path.rglob("*")) == before


#: SHA-1 of every file the write path produces from a small seeded
#: library, stage by stage.  A change to parsing, decoy simulation,
#: preprocessing or encoding that moves any output bit changes one.
_WRITE_PATH_SHA1 = {
    "inputs": {
        "library.msp": "aca922c4df3a03d9aa86e9f6c112ffac67b2996c",
        "more.msp": "a5174dd6bf061be7bdf9fec4d986f40e54cf242f",
        "queries.mgf": "f360754ea706c55a2326cb1a2389caaaf559459c",
    },
    "build": {"library.npz": "519f47bdb807568de0111597acfdd7f865d35575"},
    "segments": {
        "manifest.json": "31e3ab25df9c2b1dddf9afb6b3492679d2fb949d",
        "segments/seg-000000.npz": "c81e7dded70f5b05db645c012dfff69c2fc8b3dd",
        "segments/seg-000001.npz": "7dfc518309c272addc83caae933e932f75d2c98b",
        "segments/seg-000002.npz": "6ac5695e34614cc8a1b1fc22d691df53d8a5ee80",
        "segments/seg-000003.npz": "c3d86606b1760664585561777ceb8e1fb4440126",
    },
    "append": {
        "manifest.json": "b668c7d6e06ed26d62d7beb8acfcfee38b097b8d",
        "segments/seg-000000.npz": "c81e7dded70f5b05db645c012dfff69c2fc8b3dd",
        "segments/seg-000001.npz": "7dfc518309c272addc83caae933e932f75d2c98b",
        "segments/seg-000002.npz": "6ac5695e34614cc8a1b1fc22d691df53d8a5ee80",
        "segments/seg-000003.npz": "c3d86606b1760664585561777ceb8e1fb4440126",
        "segments/seg-000004.npz": "ac868d4882e547a40d186e4289ef63f5f6345f3d",
        "segments/seg-000005.npz": "234e82670caae425b1dc5871bd29c203bccebf8a",
        "segments/seg-000006.npz": "eeee9585dbd25ef4d78e8c86557df318b559e87f",
    },
    "merge": {
        "manifest.json": "9fa297a8c11bfbbc1b6473532f5ceb72f09daf78",
        "segments/seg-000007.npz": "287fac69fc0e65a1f297bdcce04b3e4bc8c62707",
    },
}


def _sha1_tree(root):
    import hashlib

    return {
        str(path.relative_to(root)): hashlib.sha1(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_write_path_outputs_are_byte_identical(tmp_path, monkeypatch):
    """Inputs, ``.npz``, segments and manifest of build, append and merge.

    Relative paths keep the stored ``source`` strings (and so the bytes)
    independent of where the test runs.
    """
    from repro.ms import WorkloadConfig, build_workload, write_mgf, write_msp

    monkeypatch.chdir(tmp_path)
    library = build_workload(
        WorkloadConfig(name="pin", num_references=80, num_queries=12, seed=21)
    )
    write_msp(library.references, "library.msp")
    write_mgf(library.queries, "queries.mgf")
    more = build_workload(
        WorkloadConfig(name="more", num_references=30, num_queries=0, seed=22)
    )
    write_msp(more.references, "more.msp")
    digests = {"inputs": _sha1_tree(tmp_path)}
    shared = ["--dim", "512", "--seed", "21"]
    assert main(
        ["index", "build", "--library", "library.msp", "--output", "library.npz", *shared]
    ) == 0
    digests["build"] = {"library.npz": _sha1_tree(tmp_path)["library.npz"]}
    assert main(
        ["index", "build", "--library", "library.msp", "--output", "store",
         "--segment-rows", "48", *shared]
    ) == 0
    digests["segments"] = _sha1_tree(tmp_path / "store")
    assert main(
        ["index", "append", "--store", "store", "--library", "more.msp",
         "--segment-rows", "24", "--seed", "21"]
    ) == 0
    digests["append"] = _sha1_tree(tmp_path / "store")
    assert main(["index", "merge", "--store", "store"]) == 0
    digests["merge"] = _sha1_tree(tmp_path / "store")
    assert digests == _WRITE_PATH_SHA1
