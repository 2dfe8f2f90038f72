"""Command-line interface: ``hdoms`` (also installed as ``repro``).

Seven subcommands cover the library's user-facing workflows:

* ``hdoms workload`` — generate a synthetic benchmark (MSP library +
  MGF queries + ground-truth TSV) to disk;
* ``hdoms search`` — run the full OMS pipeline on an MSP library and
  MGF queries, writing accepted PSMs as TSV;
* ``hdoms index build`` / ``hdoms index search`` — encode a library
  once into a persistent ``.npz`` index (or, with ``--segment-rows``, a
  segmented store directory that never holds the whole library in RAM),
  then serve any number of query batches from it (optionally sharded
  across scoring threads);
* ``hdoms index append`` / ``hdoms index merge`` — stream new spectra
  into an existing segmented store, and compact its segments, without a
  full rebuild (see ``docs/index-format.md``);
* ``hdoms serve`` — run the long-lived online search service (micro-
  batching + result cache + HTTP JSON API) over a persisted index;
* ``hdoms profile`` — search queries against an index with span tracing
  on, write a Chrome/Perfetto ``trace_event`` JSON file, and print the
  per-stage latency table (see ``docs/observability.md``);
* ``hdoms experiment`` — regenerate one (or all) of the paper's tables
  and figures and print the rows/series;
* ``hdoms info`` — version and configuration summary.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from . import __version__


def _add_logging_arguments(parser) -> None:
    """The shared ``--log-*`` flag group (long-running subcommands)."""
    from .obs.logging import LOG_FORMATS, LOG_LEVELS

    group = parser.add_argument_group("logging")
    group.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="minimum level for repro.* log lines (default info)",
    )
    group.add_argument(
        "--log-format",
        choices=LOG_FORMATS,
        default="text",
        help="text = human-readable lines, json = one JSON object per line",
    )


def _setup_logging_from_args(args) -> None:
    """Install the stderr log handler the ``--log-*`` flags describe."""
    from .obs.logging import setup_logging

    setup_logging(level=args.log_level, fmt=args.log_format)


def _add_ann_arguments(parser) -> None:
    """The shared ``--ann*`` flag group (index search, serve, profile)."""
    group = parser.add_argument_group(
        "approximate search",
        "truncated-precision candidate pass with exact re-rank "
        "(see docs/ann-tuning.md)",
    )
    group.add_argument(
        "--ann",
        action="store_true",
        help="enable the ANN candidate pass",
    )
    group.add_argument(
        "--ann-words",
        type=int,
        default=None,
        metavar="W",
        help="leading 64-bit words of each row the coarse pass reads (default 32)",
    )
    group.add_argument(
        "--ann-budget",
        type=int,
        default=None,
        metavar="N",
        help="rows kept per query for the exact re-rank (default 256)",
    )
    group.add_argument(
        "--ann-threshold",
        type=int,
        default=None,
        metavar="N",
        help=(
            "precursor windows smaller than this many rows skip the "
            "coarse pass and stay exact (default 1024)"
        ),
    )


def _ann_config_from_args(args):
    """``Optional[AnnConfig]`` from the ``--ann*`` flags.

    Raises ``ValueError`` when a tuning flag is given without ``--ann``
    — silently ignoring it would look like the knob took effect.
    """
    from .ann import AnnConfig

    overrides = {
        "prefix_words": ("--ann-words", args.ann_words),
        "candidate_budget": ("--ann-budget", args.ann_budget),
        "ann_threshold": ("--ann-threshold", args.ann_threshold),
    }
    given = {
        key: (flag, value)
        for key, (flag, value) in overrides.items()
        if value is not None
    }
    if not args.ann:
        if given:
            flags = ", ".join(sorted(flag for flag, _ in given.values()))
            raise ValueError(f"{flags} requires --ann")
        return None
    return AnnConfig(**{key: value for key, (_, value) in given.items()})


def add_engine_args(parser, *, workers_default: Optional[int] = None) -> None:
    """The shared engine flag group (index search/append/merge, serve, profile).

    One definition feeds every entry point so the flags cannot drift
    between subcommands; :func:`engine_config_from_args` turns the
    parsed namespace into one :class:`~repro.engine.EngineConfig`.

    Args:
        parser: The subcommand parser to extend.
        workers_default: Default ``--workers`` (``0`` = serial,
            ``None`` = auto-size to the shard/segment count).
    """
    group = parser.add_argument_group(
        "engine", "execution knobs shared by every search entry point"
    )
    group.add_argument(
        "--shards", type=int, default=1, help="library partitions to score"
    )
    group.add_argument(
        "--workers",
        type=int,
        default=workers_default,
        help=(
            "scoring threads (0 = score serially"
            + (", default" if workers_default == 0 else "")
            + "; omitted = one per shard up to the CPU count)"
        ),
    )


def engine_config_from_args(args, ann=None):
    """One :class:`~repro.engine.EngineConfig` from the shared flag group.

    ``ann`` threads an :class:`~repro.ann.AnnConfig` (usually from
    :func:`_ann_config_from_args`) into the engine config so a single
    object carries every execution knob.
    """
    from .engine import EngineConfig

    return EngineConfig(
        num_shards=args.shards,
        num_workers=args.workers,
        ann=ann,
    )


def _add_workload_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "workload", help="generate a synthetic OMS benchmark to disk"
    )
    parser.add_argument(
        "--preset",
        choices=("iprg2012", "hek293", "custom"),
        default="iprg2012",
        help="workload preset (Table 1 stand-ins)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--references", type=int, help="override library size")
    parser.add_argument("--queries", type=int, help="override query count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output-dir", type=Path, required=True, help="directory to write into"
    )


def _add_search_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "search", help="open modification search: MSP library vs MGF queries"
    )
    parser.add_argument("--library", type=Path, required=True, help="MSP file")
    parser.add_argument("--queries", type=Path, required=True, help="MGF file")
    parser.add_argument("--output", type=Path, help="TSV of accepted PSMs")
    parser.add_argument("--dim", type=int, default=8192)
    parser.add_argument("--id-bits", type=int, choices=(1, 2, 3), default=3)
    parser.add_argument("--levels", type=int, default=32)
    parser.add_argument(
        "--mode", choices=("open", "standard", "cascade"), default="open"
    )
    parser.add_argument("--fdr", type=float, default=0.01)
    parser.add_argument("--open-window", type=float, default=500.0)
    parser.add_argument(
        "--backend",
        choices=("packed", "rram"),
        default="packed",
        help="packed = exact XOR + popcount on the fan-out core; "
        "rram = simulated MLC accelerator",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-decoys",
        action="store_true",
        help="library already contains decoys (Comment: Decoy=true)",
    )


def _add_index_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "index", help="build / search a persistent encoded-library index"
    )
    index_sub = parser.add_subparsers(dest="index_command", required=True)

    build = index_sub.add_parser(
        "build", help="encode an MSP library once and persist it as .npz"
    )
    build.add_argument("--library", type=Path, required=True, help="MSP file")
    build.add_argument(
        "--output", type=Path, required=True, help="index file to write (.npz)"
    )
    build.add_argument("--dim", type=int, default=8192)
    build.add_argument("--id-bits", type=int, choices=(1, 2, 3), default=3)
    build.add_argument("--levels", type=int, default=32)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--chunk-size",
        type=int,
        default=512,
        help="spectra encoded per batch (bounds peak memory)",
    )
    build.add_argument(
        "--no-decoys",
        action="store_true",
        help="library already contains decoys (Comment: Decoy=true)",
    )
    build.add_argument(
        "--segment-rows",
        type=int,
        default=None,
        metavar="N",
        help=(
            "write a segmented store *directory* at --output instead of "
            "one .npz, streaming the library in segments of N rows so "
            "peak memory stays bounded (see docs/index-format.md)"
        ),
    )
    _add_logging_arguments(build)

    search = index_sub.add_parser(
        "search", help="search MGF queries against a persisted index"
    )
    search.add_argument(
        "--index",
        type=Path,
        required=True,
        dest="index_path",
        help=".npz index or segmented store directory",
    )
    search.add_argument("--queries", type=Path, required=True, help="MGF file")
    search.add_argument(
        "--output",
        type=Path,
        help=(
            "output file: accepted-PSM TSV, or the JSONL stream with "
            "--output-format jsonl (stdout when omitted)"
        ),
    )
    search.add_argument(
        "--mode", choices=("open", "standard", "cascade"), default="open"
    )
    search.add_argument(
        "--fdr",
        type=float,
        default=None,
        help="FDR threshold for tsv output (default 0.01; ignored by jsonl)",
    )
    search.add_argument("--open-window", type=float, default=500.0)
    search.add_argument(
        "--output-format",
        choices=("tsv", "jsonl"),
        default="tsv",
        help=(
            "tsv = FDR-filtered PSMs, buffered and sorted; jsonl = stream "
            "every PSM (targets and decoys, pre-FDR, q_value null) as JSON "
            "lines while query chunks are searched, without buffering the "
            "full result set"
        ),
    )
    search.add_argument(
        "--chunk-size",
        type=int,
        default=512,
        help="queries searched per batch in jsonl streaming mode",
    )
    add_engine_args(search)
    _add_ann_arguments(search)
    _add_logging_arguments(search)

    append = index_sub.add_parser(
        "append",
        help="stream new spectra into an existing segmented store",
    )
    append.add_argument(
        "--store",
        type=Path,
        required=True,
        help="segmented store directory (must already have a manifest)",
    )
    append.add_argument(
        "--library",
        type=Path,
        required=True,
        help="MSP/MGF file of new reference spectra",
    )
    append.add_argument(
        "--segment-rows",
        type=int,
        default=None,
        metavar="N",
        help="rows per new segment (default 8192)",
    )
    append.add_argument(
        "--chunk-size",
        type=int,
        default=512,
        help="spectra encoded per batch (bounds peak memory)",
    )
    append.add_argument(
        "--no-decoys",
        action="store_true",
        help="library already contains decoys (Comment: Decoy=true)",
    )
    append.add_argument("--seed", type=int, default=0)
    append.add_argument(
        "--verify-queries",
        type=Path,
        default=None,
        metavar="MGF",
        help="after appending, search these queries to sanity-check the store",
    )
    add_engine_args(append)
    _add_logging_arguments(append)

    merge = index_sub.add_parser(
        "merge",
        help="compact a segmented store's segments without a rebuild",
    )
    merge.add_argument(
        "--store",
        type=Path,
        required=True,
        help="segmented store directory",
    )
    merge.add_argument(
        "--target-rows",
        type=int,
        default=None,
        metavar="N",
        help=(
            "merge adjacent segments up to N rows each "
            "(default: compact everything into one segment)"
        ),
    )
    merge.add_argument(
        "--verify-queries",
        type=Path,
        default=None,
        metavar="MGF",
        help="after merging, search these queries to sanity-check the store",
    )
    add_engine_args(merge)
    _add_logging_arguments(merge)


def _add_server_arguments(parser, *, port: int) -> None:
    """Flags ``serve`` and ``coordinate`` share: bind address, search, tracing."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port)
    parser.add_argument(
        "--mode", choices=("open", "standard", "cascade"), default="open"
    )
    parser.add_argument("--open-window", type=float, default=500.0)
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log one line per HTTP request",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable span tracing (/debug/trace returns an empty trace)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        metavar="N",
        help="span ring-buffer size (default 4096)",
    )


def _server_kwargs(args) -> dict:
    """The runner arguments the :func:`_add_server_arguments` flags describe."""
    from .obs.trace import DEFAULT_CAPACITY

    return {
        "host": args.host,
        "port": args.port,
        "quiet": not args.verbose,
        "trace": not args.no_trace,
        "trace_capacity": (
            args.trace_capacity
            if args.trace_capacity is not None
            else DEFAULT_CAPACITY
        ),
    }


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="online search service over persisted indexes (HTTP JSON API)",
    )
    parser.add_argument(
        "--index",
        action="append",
        required=True,
        dest="indexes",
        metavar="[NAME=]PATH",
        help=(
            ".npz index or segmented store directory to serve; repeat "
            "to front several libraries as NAME=PATH routes (a single "
            "bare PATH is served as the 'default' route)"
        ),
    )
    parser.add_argument(
        "--default-route",
        default=None,
        help="route answering requests that name none (default: first --index)",
    )
    _add_server_arguments(parser, port=8337)
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU result-cache capacity (0 disables caching)",
    )
    add_engine_args(parser, workers_default=0)
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "record requests slower than this in the /debug/slow ring "
            "buffer (default 250; 0 records every request)"
        ),
    )
    _add_ann_arguments(parser)
    _add_logging_arguments(parser)


def _add_coordinate_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "coordinate",
        help=(
            "scatter-gather coordinator over precursor-partitioned "
            "repro-serve workers (bit-identical to single-node)"
        ),
    )
    parser.add_argument(
        "--store",
        type=Path,
        required=True,
        dest="store_path",
        help="segmented store directory the partition plan is built from",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=2,
        metavar="N",
        help="worker partitions (clamped to the store's segment count)",
    )
    parser.add_argument(
        "--strategy",
        choices=("rows", "mass"),
        default="rows",
        help=(
            "rows = contiguous manifest runs balanced by row count "
            "(parallelism); mass = segments grouped by precursor-mass "
            "range (pruning)"
        ),
    )
    workers = parser.add_mutually_exclusive_group(required=True)
    workers.add_argument(
        "--worker",
        action="append",
        dest="workers",
        metavar="URL",
        help=(
            "pre-started worker URL; repeat per partition (extras become "
            "replicas, dealt round-robin: URL i serves partition i %% N)"
        ),
    )
    workers.add_argument(
        "--spawn-workers",
        action="store_true",
        help=(
            "materialize the partition manifests and spawn one local "
            "repro serve per partition"
        ),
    )
    _add_server_arguments(parser, port=8347)
    parser.add_argument(
        "--worker-threads",
        type=int,
        default=0,
        metavar="N",
        help="scoring threads per spawned worker (0 = serial)",
    )
    robustness = parser.add_argument_group(
        "robustness", "admission, hedging, and health probing knobs"
    )
    robustness.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help=(
            "search requests admitted at once; excess get HTTP 429 with "
            "Retry-After (default 64)"
        ),
    )
    robustness.add_argument(
        "--worker-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="per-call worker deadline in seconds (default 60)",
    )
    robustness.add_argument(
        "--probe-interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between /healthz probe rounds (default 2)",
    )
    robustness.add_argument(
        "--hedge-floor-ms",
        type=float,
        default=20.0,
        metavar="MS",
        help=(
            "lower bound on the p99-derived hedge deadline (default 20)"
        ),
    )
    robustness.add_argument(
        "--startup-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="seconds to wait for every partition to turn healthy",
    )
    _add_logging_arguments(parser)


def _add_profile_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "profile",
        help=(
            "trace a search run and write Chrome/Perfetto trace_event JSON"
        ),
    )
    parser.add_argument(
        "--index",
        type=Path,
        required=True,
        dest="index_path",
        help=".npz index or segmented store directory",
    )
    parser.add_argument("--queries", type=Path, required=True, help="MGF file")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("profile-trace.json"),
        help=(
            "trace file to write (open in chrome://tracing or "
            "https://ui.perfetto.dev; default profile-trace.json)"
        ),
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="profile only the first N queries",
    )
    parser.add_argument(
        "--mode", choices=("open", "standard", "cascade"), default="open"
    )
    parser.add_argument("--open-window", type=float, default=500.0)
    add_engine_args(parser)
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        metavar="N",
        help="span ring-buffer size (default 4096)",
    )
    _add_ann_arguments(parser)
    _add_logging_arguments(parser)


def _add_experiment_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    parser.add_argument(
        "name",
        choices=(
            "table1",
            "fig7",
            "fig8",
            "fig9a",
            "fig9b",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "all",
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor where applicable",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level ``hdoms`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="hdoms",
        description=(
            "HD-OMS-MLC: open modification spectral library search with "
            "hyperdimensional computing on simulated MLC RRAM"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_workload_parser(subparsers)
    _add_search_parser(subparsers)
    _add_index_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_coordinate_parser(subparsers)
    _add_profile_parser(subparsers)
    _add_experiment_parser(subparsers)
    subparsers.add_parser("info", help="print version and defaults")
    return parser


class InputFileError(Exception):
    """A library or query file that cannot be read, or not as valid spectra."""


def _read_spectra(path: Path, reader=None):
    """Yield the spectra of *path*, raising :class:`InputFileError` on a bad file.

    That covers a file that cannot be opened (missing, a directory,
    unreadable), malformed files (``MgfFormatError``) and peaks a
    :class:`~repro.ms.spectrum.Spectrum` rejects (negative or non-finite
    values).  ``reader`` defaults to :func:`repro.ms.iter_spectra`.
    """
    if reader is None:
        from .ms.io import iter_spectra as reader
    try:
        yield from reader(path)
    except OSError as error:
        raise InputFileError(
            f"cannot read {path}: {error.strerror or error}"
        ) from error
    except ValueError as error:
        raise InputFileError(f"{path}: {error}") from error


@contextmanager
def _library_input(path: Path):
    """Report a library that keeps no spectrum as a bad *path*.

    A library none of whose spectra survives preprocessing cannot be
    searched or indexed: it ends like an unreadable file, with
    :class:`InputFileError`.
    """
    from .ms.preprocessing import EmptyLibraryError

    try:
        yield
    except EmptyLibraryError as error:
        raise InputFileError(f"{path}: {error}") from error


def _load_library(path: Path, no_decoys: bool, seed: int):
    """Read a spectral library, appending simulator decoys unless told not to."""
    from .ms.decoy import append_decoys, decoy_factory

    references = list(_read_spectra(path))
    if no_decoys:
        return references
    return append_decoys(references, decoy_factory(seed), seed=seed)


def _iter_library(path: Path, no_decoys: bool, seed: int):
    """Stream a spectral library: targets first, then generated decoys.

    The streaming twin of :func:`_load_library` for segmented-store
    ingest: the file is read twice (targets, then a decoy per target)
    so at no point is the library resident, and
    :func:`~repro.ms.decoy.iter_decoys` seeded like
    :func:`~repro.ms.decoy.append_decoys` keeps the decoy sequences —
    and therefore the stored rows — bit-identical to the buffered path.
    """
    from .ms.decoy import decoy_factory, iter_decoys

    yield from _read_spectra(path)
    if not no_decoys:
        yield from iter_decoys(_read_spectra(path), decoy_factory(seed), seed=seed)


def _write_psm_tsv(path: Path, accepted) -> None:
    """Write accepted PSMs in the standard TSV layout."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "query_id\treference_id\tpeptide\tscore\tq_value\t"
            "mass_difference_da\tmode\n"
        )
        for psm in sorted(accepted, key=lambda p: -p.score):
            handle.write(
                f"{psm.query_id}\t{psm.reference_id}\t"
                f"{psm.peptide_key or '-'}\t{psm.score:.1f}\t"
                f"{psm.q_value:.5f}\t{psm.precursor_mass_difference:+.4f}\t"
                f"{psm.mode}\n"
            )


def cmd_workload(args) -> int:
    """Entry point for ``hdoms workload`` (synthetic workload generation)."""
    from .experiments.workloads import HEK293_LIKE, IPRG2012_LIKE
    from .ms.mgf import write_mgf
    from .ms.msp import write_msp
    from .ms.synthetic import WorkloadConfig, build_workload, scaled_config

    if args.preset == "iprg2012":
        config = scaled_config(IPRG2012_LIKE, args.scale)
    elif args.preset == "hek293":
        config = scaled_config(HEK293_LIKE, args.scale)
    else:
        config = WorkloadConfig(
            name="custom",
            num_references=args.references or 1000,
            num_queries=args.queries or 200,
            seed=args.seed,
        )
    if args.references:
        config = WorkloadConfig(**{**config.__dict__, "num_references": args.references})
    if args.queries:
        config = WorkloadConfig(**{**config.__dict__, "num_queries": args.queries})

    workload = build_workload(config)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    library_path = args.output_dir / "library.msp"
    queries_path = args.output_dir / "queries.mgf"
    truth_path = args.output_dir / "truth.tsv"
    write_msp(workload.references, library_path)
    write_mgf(workload.queries, queries_path)
    with open(truth_path, "w", encoding="utf-8") as handle:
        handle.write("query_id\ttrue_peptide\n")
        for query_id, truth in sorted(workload.truth.items()):
            handle.write(f"{query_id}\t{truth or '-'}\n")
    print(f"wrote {len(workload.references)} references -> {library_path}")
    print(f"wrote {len(workload.queries)} queries    -> {queries_path}")
    print(f"wrote ground truth           -> {truth_path}")
    return 0


def cmd_search(args) -> int:
    """Entry point for ``hdoms search`` (end-to-end open search + FDR)."""
    from .constants import DEFAULT_STANDARD_WINDOW_DA
    from .hdc.encoder import SpectrumEncoder
    from .hdc.spaces import HDSpace, HDSpaceConfig
    from .ms.mgf import read_mgf
    from .ms.vectorize import BinningConfig
    from .oms.candidates import WindowConfig
    from .oms.fdr import grouped_fdr

    references = _load_library(args.library, args.no_decoys, args.seed)
    queries = list(_read_spectra(args.queries, read_mgf))
    print(f"library (incl. decoys): {len(references)}, queries: {len(queries)}")

    binning = BinningConfig()
    windows = WindowConfig(
        standard_tolerance_da=DEFAULT_STANDARD_WINDOW_DA,
        open_window_da=args.open_window,
    )
    space_config = HDSpaceConfig(
        dim=args.dim,
        num_bins=binning.num_bins,
        num_levels=args.levels,
        id_precision_bits=args.id_bits,
        seed=args.seed,
    )
    with _library_input(args.library):
        if args.backend == "rram":
            from .accelerator.accelerator import OmsAccelerator
            from .accelerator.config import AcceleratorConfig
            from .oms.candidates import HDSearchConfig

            accelerator = OmsAccelerator(
                config=AcceleratorConfig(seed=args.seed),
                space_config=space_config,
                binning=binning,
                windows=windows,
                search=HDSearchConfig(mode=args.mode),
            )
            searcher = accelerator.build_searcher(references)
        else:
            from .oms.batch import BatchedHDOmsSearcher

            searcher = BatchedHDOmsSearcher(
                SpectrumEncoder(HDSpace(space_config), binning),
                references,
                windows=windows,
                mode=args.mode,
            )

    result = searcher.search(queries)
    accepted = grouped_fdr(result.psms, args.fdr)
    peptides = {psm.peptide_key for psm in accepted if psm.peptide_key}
    modified = sum(1 for psm in accepted if psm.is_modified_match)
    print(
        f"accepted {len(accepted)} PSMs at {args.fdr:.0%} FDR "
        f"({len(peptides)} unique peptides, {modified} modified) "
        f"in {result.elapsed_seconds:.2f}s on backend {result.backend_name!r}"
    )
    if args.output:
        _write_psm_tsv(args.output, accepted)
        print(f"wrote PSMs -> {args.output}")
    return 0


def cmd_index(args) -> int:
    """Entry point for ``hdoms index`` (build/inspect/search indexes)."""
    from .index.library import IndexCompatibilityError

    commands = {
        "build": _cmd_index_build,
        "search": _cmd_index_search,
        "append": _cmd_index_append,
        "merge": _cmd_index_merge,
    }
    try:
        return commands[args.index_command](args)
    except IndexCompatibilityError as error:
        # An index file that cannot be read, or a store that is not what
        # its manifest says (a StoreCompatibilityError), or either not in
        # the format this build reads: one line, exit 2, never a PSM and
        # never a partial index or store.
        print(f"index {args.index_command}: {error}", file=sys.stderr)
        return 2


def _cmd_index_build(args) -> int:
    import time

    from .hdc.spaces import HDSpaceConfig
    from .index.library import LibraryIndex
    from .ms.vectorize import BinningConfig

    try:
        _setup_logging_from_args(args)
    except ValueError as error:
        print(f"index build: {error}", file=sys.stderr)
        return 2
    binning = BinningConfig()
    space_config = HDSpaceConfig(
        dim=args.dim,
        num_bins=binning.num_bins,
        num_levels=args.levels,
        id_precision_bits=args.id_bits,
        seed=args.seed,
    )
    if args.segment_rows is not None:
        from .store import build_store

        start = time.perf_counter()
        with _library_input(args.library):
            store = build_store(
                _iter_library(args.library, args.no_decoys, args.seed),
                args.output,
                space_config=space_config,
                binning=binning,
                segment_rows=args.segment_rows,
                chunk_size=args.chunk_size,
                source=str(args.library),
            )
        build_seconds = time.perf_counter() - start
        print(store.summary())
        print(
            f"streamed {store.num_references} references into "
            f"{store.num_segments} segment(s) in {build_seconds:.2f}s "
            f"-> {args.output}"
        )
        store.close()
        return 0
    references = _load_library(args.library, args.no_decoys, args.seed)
    print(f"library (incl. decoys): {len(references)}")
    start = time.perf_counter()
    with _library_input(args.library):
        index = LibraryIndex.build(
            references,
            space_config=space_config,
            binning=binning,
            chunk_size=args.chunk_size,
            source=str(args.library),
        )
    build_seconds = time.perf_counter() - start
    saved = index.save(args.output)
    print(index.summary())
    print(
        f"encoded {index.num_references} references in {build_seconds:.2f}s "
        f"-> {saved} ({saved.stat().st_size / 1024:.0f} KiB)"
    )
    return 0


def _iter_chunks(items, size: int):
    """Yield lists of up to ``size`` items from any iterable, lazily."""
    chunk = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _stream_jsonl_search(args, searcher, queries, info) -> int:
    """Stream every PSM as one JSON line per match, chunk by chunk.

    Queries are pulled lazily from the MGF iterator in chunks of
    ``--chunk-size``, so neither the query set nor the PSM list is ever
    fully resident.  The stream is pre-FDR (targets and decoys,
    ``q_value`` null) — q-values are a global property of the full run
    and would force exactly the buffering this mode exists to avoid.
    """
    import contextlib
    import json
    import time

    start = time.perf_counter()
    num_queries = 0
    num_psms = 0
    with contextlib.ExitStack() as stack:
        if args.output is not None:
            handle = stack.enter_context(
                open(args.output, "w", encoding="utf-8")
            )
        else:
            handle = sys.stdout
        try:
            for chunk in _iter_chunks(queries, args.chunk_size):
                result = searcher.search(chunk)
                num_queries += result.num_queries
                num_psms += len(result.psms)
                for psm in result.psms:
                    handle.write(json.dumps(psm.to_dict()) + "\n")
                handle.flush()
        except InputFileError:
            # A bad query further down the file: no partial output file.
            if args.output is not None:
                stack.close()
                args.output.unlink(missing_ok=True)
            raise
    elapsed = time.perf_counter() - start
    print(
        f"streamed {num_psms} PSMs (pre-FDR, targets+decoys) for "
        f"{num_queries} queries in {elapsed:.2f}s",
        file=info,
    )
    if args.output is not None:
        print(f"wrote JSONL -> {args.output}", file=info)
    return 0


def _print_ann_summary(searcher, stream) -> None:
    """Per-run ANN prefilter summary (printed after ``--ann`` searches)."""
    stats = getattr(searcher, "ann_stats", None)
    if stats is None:
        return
    snapshot = stats.snapshot()
    window_rows = snapshot["window_rows"]
    ratio = (
        f"{snapshot['scored_rows'] / window_rows:.4f}" if window_rows else "n/a"
    )
    print(
        f"ann prefilter: {snapshot['bypassed']} bypassed, "
        f"{snapshot['prefiltered']} prefiltered; "
        f"mean candidate ratio {ratio} "
        f"({snapshot['scored_rows']}/{window_rows} window rows scored)",
        file=stream,
    )


def _open_searcher(index_path: Path, *, windows, config, engine):
    """Open the right searcher for a path: segmented store vs ``.npz``.

    :func:`repro.index.open_search_source` decides: a directory (or an
    explicit ``manifest.json``) opens lazily behind a
    :class:`~repro.store.SegmentedSearcher`; anything else loads as a
    monolithic index behind a
    :class:`~repro.index.sharded.ShardedSearcher`, without importing the
    store tier.  Both support the context-manager protocol and release
    their scoring threads on ``close``.
    """
    from .index.library import LibraryIndex, open_search_source

    source = open_search_source(index_path)
    if isinstance(source, LibraryIndex):
        from .index.sharded import ShardedSearcher as searcher_type
    else:
        from .store.search import SegmentedSearcher as searcher_type
    return searcher_type(source, windows=windows, config=config, engine=engine)


def _cmd_index_search(args) -> int:
    import time

    from .constants import DEFAULT_FDR_THRESHOLD, DEFAULT_STANDARD_WINDOW_DA
    from .ms.mgf import read_mgf
    from .oms.candidates import WindowConfig
    from .oms.fdr import grouped_fdr
    from .oms.candidates import HDSearchConfig

    if args.chunk_size < 1:
        print(f"--chunk-size must be >= 1, got {args.chunk_size}", file=sys.stderr)
        return 2
    try:
        ann = _ann_config_from_args(args)
        engine = engine_config_from_args(args)
        _setup_logging_from_args(args)
    except ValueError as error:
        print(f"index search: {error}", file=sys.stderr)
        return 2
    streaming = args.output_format == "jsonl"
    # When JSON lines go to stdout, keep it clean: say everything else
    # on stderr.
    info = sys.stderr if streaming and args.output is None else sys.stdout
    if streaming and args.fdr is not None:
        print(
            "warning: --fdr is ignored with --output-format jsonl "
            "(the stream is pre-FDR; filter downstream)",
            file=sys.stderr,
        )
    fdr = args.fdr if args.fdr is not None else DEFAULT_FDR_THRESHOLD

    windows = WindowConfig(
        standard_tolerance_da=DEFAULT_STANDARD_WINDOW_DA,
        open_window_da=args.open_window,
    )
    start = time.perf_counter()
    searcher_cm = _open_searcher(
        args.index_path,
        windows=windows,
        config=HDSearchConfig(mode=args.mode, ann=ann),
        engine=engine,
    )
    load_seconds = time.perf_counter() - start
    source = getattr(searcher_cm, "store", None) or searcher_cm.index
    print(source.summary(), file=info)
    print(
        f"opened {args.index_path} in {load_seconds * 1000:.1f} ms "
        "(encoding skipped)",
        file=info,
    )
    with searcher_cm as searcher:
        if streaming:
            code = _stream_jsonl_search(
                args, searcher, _read_spectra(args.queries, read_mgf), info
            )
            _print_ann_summary(searcher, info)
            return code
        result = searcher.search(list(_read_spectra(args.queries, read_mgf)))
        _print_ann_summary(searcher, info)
    accepted = grouped_fdr(result.psms, fdr)
    peptides = {psm.peptide_key for psm in accepted if psm.peptide_key}
    modified = sum(1 for psm in accepted if psm.is_modified_match)
    print(
        f"accepted {len(accepted)} PSMs at {fdr:.0%} FDR "
        f"({len(peptides)} unique peptides, {modified} modified) "
        f"in {result.elapsed_seconds:.2f}s on backend {result.backend_name!r}"
    )
    if args.output:
        _write_psm_tsv(args.output, accepted)
        print(f"wrote PSMs -> {args.output}")
    return 0


def _verify_store(args, store) -> int:
    """Optional post-append/merge sanity search (``--verify-queries``).

    Reuses the shared engine flag group: the verification search runs
    through the same :class:`~repro.store.SegmentedSearcher` a real
    ``index search`` against the store would use.
    """
    if args.verify_queries is None:
        return 0
    from .ms.mgf import read_mgf
    from .oms.candidates import HDSearchConfig
    from .store import SegmentedSearcher

    with SegmentedSearcher(
        store, config=HDSearchConfig(), engine=engine_config_from_args(args)
    ) as searcher:
        result = searcher.search(list(_read_spectra(args.verify_queries, read_mgf)))
    print(
        f"verify: {len(result.psms)} PSMs for {result.num_queries} queries "
        f"on backend {result.backend_name!r}"
    )
    return 0


def _cmd_index_append(args) -> int:
    import time

    from .store import append_store

    try:
        engine_config_from_args(args)  # fail fast on bad engine flags
        _setup_logging_from_args(args)
    except ValueError as error:
        print(f"index append: {error}", file=sys.stderr)
        return 2
    extra = {}
    if args.segment_rows is not None:
        extra["segment_rows"] = args.segment_rows
    start = time.perf_counter()
    try:
        store = append_store(
            args.store,
            _iter_library(args.library, args.no_decoys, args.seed),
            chunk_size=args.chunk_size,
            source=str(args.library),
            **extra,
        )
    except ValueError as error:  # includes StoreCompatibilityError
        print(f"index append: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(store.summary())
    print(
        f"appended {args.library} in {elapsed:.2f}s -> "
        f"{store.num_references} references in "
        f"{store.num_segments} segment(s)"
    )
    code = _verify_store(args, store)
    store.close()
    return code


def _cmd_index_merge(args) -> int:
    import time

    from .store import merge_store

    try:
        engine_config_from_args(args)  # fail fast on bad engine flags
        _setup_logging_from_args(args)
    except ValueError as error:
        print(f"index merge: {error}", file=sys.stderr)
        return 2
    if args.target_rows is not None and args.target_rows < 1:
        print(
            f"--target-rows must be >= 1, got {args.target_rows}",
            file=sys.stderr,
        )
        return 2
    start = time.perf_counter()
    store = merge_store(args.store, target_rows=args.target_rows)
    elapsed = time.perf_counter() - start
    print(store.summary())
    print(
        f"compacted to {store.num_segments} segment(s) in {elapsed:.2f}s"
    )
    code = _verify_store(args, store)
    store.close()
    return code


def _split_index_entry(entry: str):
    """``NAME=PATH`` -> (name, path); anything else -> (None, entry).

    An entry counts as named only when the prefix before the first
    ``=`` is a legal route name, so a bare path that happens to contain
    ``=`` (``./results=final/lib.npz``) keeps working as a path.  When
    the prefix *is* route-shaped (``v2=run/lib.npz``) the NAME=PATH
    reading wins — name the route explicitly to serve such a path.
    """
    from .service import ROUTE_PATTERN

    name, sep, path = entry.partition("=")
    if sep and ROUTE_PATTERN.match(name):
        return name, path
    return None, entry


def _parse_index_routes(entries) -> dict:
    """Parse repeated ``--index [NAME=]PATH`` flags into route->path.

    A lone bare path keeps the original single-index behaviour (served
    as the ``default`` route); mixing several indexes requires every
    entry to be named so routes stay unambiguous.
    """
    from .service import DEFAULT_ROUTE

    split = [(entry, *_split_index_entry(entry)) for entry in entries]
    bare = [entry for entry, name, _path in split if name is None]
    if bare and len(entries) > 1:
        raise ValueError(
            f"with multiple --index flags every entry needs a route name "
            f"(NAME=PATH); got bare path(s) {bare}"
        )
    routes = {}
    for entry, name, path in split:
        if name is None:
            name = DEFAULT_ROUTE
        if not path:
            raise ValueError(f"--index {entry!r} has an empty path")
        if name in routes:
            raise ValueError(f"duplicate route name {name!r} in --index flags")
        routes[name] = Path(path)
    return routes


def _service_config_from_args(args):
    """The :class:`~repro.service.ServiceConfig` the ``serve`` flags describe."""
    from .constants import DEFAULT_STANDARD_WINDOW_DA
    from .service import ServiceConfig

    return ServiceConfig(
        cache_capacity=args.cache_size,
        mode=args.mode,
        open_window_da=args.open_window,
        standard_tolerance_da=DEFAULT_STANDARD_WINDOW_DA,
        engine_config=engine_config_from_args(
            args, ann=_ann_config_from_args(args)
        ),
    )


def cmd_serve(args) -> int:
    """Entry point for ``hdoms serve`` (HTTP search service)."""
    from .obs.slowlog import DEFAULT_SLOW_MS
    from .service import ServiceStartupError, serve

    # Bad flag values (e.g. --shards 0) and unreadable index files are
    # usage errors, not crashes; failures after startup keep their
    # tracebacks.
    try:
        _setup_logging_from_args(args)
        return serve(
            _parse_index_routes(args.indexes),
            config=_service_config_from_args(args),
            default_route=args.default_route,
            slow_ms=args.slow_ms if args.slow_ms is not None else DEFAULT_SLOW_MS,
            **_server_kwargs(args),
        )
    except (ValueError, ServiceStartupError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2


def cmd_coordinate(args) -> int:
    """Entry point for ``hdoms coordinate`` (scatter-gather front-end)."""
    from .constants import DEFAULT_STANDARD_WINDOW_DA
    from .coord import serve_coordinate
    from .service import ServiceStartupError

    try:
        _setup_logging_from_args(args)
        if args.partitions < 1:
            raise ValueError(
                f"--partitions must be >= 1, got {args.partitions}"
            )
        return serve_coordinate(
            args.store_path,
            num_partitions=args.partitions,
            strategy=args.strategy,
            worker_urls=args.workers,
            spawn_workers=args.spawn_workers,
            mode=args.mode,
            open_window=args.open_window,
            standard_tolerance=DEFAULT_STANDARD_WINDOW_DA,
            worker_threads=args.worker_threads,
            max_inflight=args.max_inflight,
            worker_timeout=args.worker_timeout,
            probe_interval=args.probe_interval,
            hedge_floor_ms=args.hedge_floor_ms,
            startup_timeout=args.startup_timeout,
            **_server_kwargs(args),
        )
    except (ValueError, ServiceStartupError) as error:
        print(f"coordinate: {error}", file=sys.stderr)
        return 2


def cmd_profile(args) -> int:
    """Entry point for ``hdoms profile`` (traced search + stage table)."""
    import json
    import time

    from .constants import DEFAULT_STANDARD_WINDOW_DA
    from .index.library import IndexCompatibilityError
    from .ms.mgf import read_mgf
    from .obs.export import chrome_trace
    from .obs.profile import render_stage_table, summarize_spans
    from .obs.trace import DEFAULT_CAPACITY, get_tracer, new_request_id
    from .oms.candidates import WindowConfig
    from .oms.candidates import HDSearchConfig

    try:
        ann = _ann_config_from_args(args)
        engine = engine_config_from_args(args)
        _setup_logging_from_args(args)
    except ValueError as error:
        print(f"profile: {error}", file=sys.stderr)
        return 2
    if args.limit is not None and args.limit < 1:
        print(f"--limit must be >= 1, got {args.limit}", file=sys.stderr)
        return 2
    if args.trace_capacity is not None and args.trace_capacity < 1:
        print(
            f"profile: --trace-capacity must be >= 1, got {args.trace_capacity}",
            file=sys.stderr,
        )
        return 2

    queries = list(_read_spectra(args.queries, read_mgf))
    if args.limit is not None:
        queries = queries[: args.limit]
    if not queries:
        print("profile: no queries to run", file=sys.stderr)
        return 2

    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enable(
        args.trace_capacity
        if args.trace_capacity is not None
        else DEFAULT_CAPACITY
    )
    tracer.clear()
    request_id = new_request_id()
    windows = WindowConfig(
        standard_tolerance_da=DEFAULT_STANDARD_WINDOW_DA,
        open_window_da=args.open_window,
    )
    try:
        start = time.perf_counter()
        with _open_searcher(
            args.index_path,
            windows=windows,
            config=HDSearchConfig(mode=args.mode, ann=ann),
            engine=engine,
        ) as searcher:
            with tracer.span(
                "profile.run", request_id=request_id, queries=len(queries)
            ):
                result = searcher.search(queries)
            _print_ann_summary(searcher, sys.stdout)
        elapsed = time.perf_counter() - start
        spans = tracer.records()
        trace = chrome_trace(tracer)
    except IndexCompatibilityError as error:
        # Like `index search`: one line, exit 2, no trace file.
        print(f"profile: {error}", file=sys.stderr)
        return 2
    finally:
        if not was_enabled:
            tracer.disable()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    print(
        f"profiled {len(queries)} queries ({len(result.psms)} PSMs) in "
        f"{elapsed:.2f}s on backend {result.backend_name!r}"
    )
    print(render_stage_table(summarize_spans(spans)))
    print(
        f"wrote {len(trace['traceEvents'])} trace events -> {args.output} "
        "(open in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def cmd_experiment(args) -> int:
    """Entry point for ``hdoms experiment`` (paper figure reproductions)."""
    from . import experiments as exp

    runners = {
        "table1": lambda: exp.run_table1(scale=args.scale or 1.0),
        "fig7": lambda: exp.run_fig7(),
        "fig8": lambda: exp.run_fig8(),
        "fig9a": lambda: exp.run_fig9_encoding(),
        "fig9b": lambda: exp.run_fig9_search(),
        "fig10": lambda: exp.run_fig10(
            workload=exp.iprg2012_like(args.scale) if args.scale else None
        ),
        "fig11": lambda: exp.run_fig11(
            workload=exp.iprg2012_like(args.scale) if args.scale else None
        ),
        "fig12": lambda: exp.run_fig12(),
        "fig13": lambda: exp.run_fig13(
            workload=exp.iprg2012_like(args.scale) if args.scale else None
        ),
    }
    names = list(runners) if args.name == "all" else [args.name]
    for name in names:
        result = runners[name]()
        print(result.render())
        print()
    return 0


def cmd_info() -> int:
    """Entry point for ``hdoms info`` (version and default parameters)."""
    from .constants import (
        DEFAULT_BIN_WIDTH,
        DEFAULT_FDR_THRESHOLD,
        DEFAULT_OPEN_WINDOW_DA,
    )

    print(f"hdoms {__version__}")
    print("reproduction of Fan et al., DAC 2024 (arXiv:2405.02756)")
    print(f"  default m/z bin width : {DEFAULT_BIN_WIDTH} Da")
    print(f"  default open window   : +-{DEFAULT_OPEN_WINDOW_DA} Da")
    print(f"  default FDR threshold : {DEFAULT_FDR_THRESHOLD:.0%}")
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if action.dest == "command"
    ]
    print(f"  subcommands           : {', '.join(commands)}")
    return 0


def _run(args) -> int:
    """Dispatch parsed arguments to their subcommand."""
    if args.command == "workload":
        return cmd_workload(args)
    if args.command == "search":
        return cmd_search(args)
    if args.command == "index":
        return cmd_index(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "coordinate":
        return cmd_coordinate(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "info":
        return cmd_info()
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point; returns the process exit code.

    A library or query file that cannot be read, or not as valid
    spectra, ends every verb the same way: one ``<verb>: ...`` line on
    stderr, exit 2, and no output written.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except InputFileError as error:
        verb = args.command
        if verb == "index":
            verb = f"index {args.index_command}"
        print(f"{verb}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
