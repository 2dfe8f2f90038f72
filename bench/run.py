"""The repository's benchmark: one command, every metric by name.

Usage (from the repository root)::

    python3 bench/run.py --workload offline_open --seed 11 --seconds 10 --trace 0
    python3 bench/run.py                    # all five workloads, one report
    python3 bench/run.py --trace 1          # per-layer metrics + tax ladder
    python3 bench/run.py --repeat 2         # run the set twice and compare
    python3 bench/run.py --list             # metrics, bounds, workloads, reasons

With ``--trace 0`` a run drives one workload black-box (``repro`` CLI
verbs as subprocesses, the HTTP JSON API) and reports the end-to-end
metrics; with ``--trace 1`` it times calls into each layer's public
functions and reports the per-layer metrics and the wrapper tax ladder.
Every answer is checked against the brute-force oracle.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when an operation
failed, an answer disagreed with the oracle, a named metric is missing,
or something was left behind (a process, a ``/dev/shm`` segment).

See ``bench/README.md`` for the metric glossary and the timing protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The environment every measured process runs in, set before NumPy is
# first imported here and inherited by every child.  Both settings tame
# noise that, on the 2-vCPU VM this was written on, was several times
# larger than any effect the benchmark is meant to detect (README,
# "Environment the program runs in", has the measurements).
#
# One BLAS thread per process: a two-thread gemm stalls whenever the
# host deschedules one vCPU, and the serving workloads run several
# engine processes at once, which with two BLAS threads each
# oversubscribe the cores.  Parallelism the program asks for itself
# (shard executors, worker processes) is untouched.
#
# No transparent-huge-page requests from NumPy: the VM's host takes
# free memory back in large blocks, and refaulting them costs a fresh
# process between 0.1 and over 1 s of system time, at random.
os.environ.update(
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    NUMPY_MADVISE_HUGEPAGE="0",
)

import registry  # noqa: E402 - sibling module, found via the script directory
import report  # noqa: E402

#: Seconds after which a single run gives up and cleans up after itself
#: (the driver's own limit is 180).
RUN_TIMEOUT_S = 170


class RunTimeout(Exception):
    """A single run exceeded :data:`RUN_TIMEOUT_S`."""


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", default="all",
        choices=("all", *registry.workload_names()),
        help="which workload to run (default: all five, in order)",
    )
    parser.add_argument("--seed", type=int, default=11, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed part (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0 = end-to-end metrics, 1 = per-layer metrics and tax ladder",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every input size; below 0.25 is a smoke test in "
        "which the set-up is run once, not three times",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the whole set N times and compare the runs",
    )
    parser.add_argument(
        "--layers", default=None, metavar="A,B",
        help="with --trace 1, measure only these layers (the result then "
        "lacks the others' metrics; for working on one layer)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="also write results.json (and spans.json) there",
    )
    parser.add_argument("--list", action="store_true", help="describe and exit")
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="falsify one expected answer; the run must then fail (self-check)",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark_json().get("run_seconds", 10))
    if args.seconds <= 0 or args.scale <= 0 or args.repeat < 1:
        parser.error("--seconds and --scale must be > 0, --repeat >= 1")
    return args


def _benchmark_json() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _on_alarm(signum, frame) -> None:
    raise RunTimeout(f"run exceeded {RUN_TIMEOUT_S} s")


def _on_term(signum, frame) -> None:
    # Unwind through the sandbox's context manager like Ctrl-C does.
    raise KeyboardInterrupt


def _one_run(args: argparse.Namespace, workload: str, span_sink: Optional[Path]) -> dict:
    """One workload, traced or not, inside its own sandbox."""
    import layers
    import workloads
    from procs import Sandbox

    run_id = f"{os.getpid()}-{time.time_ns()}"
    sandbox = Sandbox(HERE / ".work" / run_id, SRC, run_id)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        with sandbox:
            ctx = workloads.Context(
                sandbox, args.seed, args.seconds, args.scale, args.corrupt_oracle
            )
            if args.trace:
                selected = args.layers.split(",") if args.layers else None
                outcome = layers.run(ctx, selected, span_sink)
                expected = [] if selected else registry.PER_LAYER
                units = registry.by_name(registry.PER_LAYER)
            else:
                outcome = workloads.run(workload, ctx)
                expected = registry.END_TO_END
                units = registry.by_name(registry.END_TO_END)
    finally:
        signal.alarm(0)
    metrics = {
        name: {"value": value, "unit": units[name].unit}
        for name, value in outcome.metrics.items()
    }
    problems = list(outcome.checker.mismatches)
    problems += [
        f"missing metric {metric.name}" for metric in expected if metric.name not in metrics
    ]
    problems += sandbox.leaks
    if outcome.failed:
        problems.append(f"{outcome.failed} of {outcome.attempted} operations failed")
    return {
        "workload": workload,
        "correct": not problems and outcome.checker.agreement == 1.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "oracle_agreement": outcome.checker.agreement,
        "answers_checked": outcome.checker.checked,
        "details": outcome.details,
        "problems": problems,
    }


def _print_run(run: dict, traced: bool) -> None:
    title = "traced run: per-layer metrics" if traced else f"{run['workload']}: end-to-end metrics"
    print(report.metrics_text(f"== {title}", run["metrics"]))
    print(
        f"  (oracle_agreement: {run['oracle_agreement']:.4f} over "
        f"{run['answers_checked']} answers; failed_share: "
        f"{run['failed']}/{run['attempted']})"
    )
    print(report.details_text(run["details"]))
    if traced:
        values = {name: entry["value"] for name, entry in run["metrics"].items()}
        print(report.ladder_text(values))
    for problem in run["problems"]:
        print(f"  PROBLEM: {problem}")
    print(flush=True)


def _contract_line(run: dict) -> dict:
    return {key: run[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: Optional[List[str]] = None) -> int:
    """Run the benchmark; return the process exit code."""
    args = _parse_args(argv)
    if args.list:
        print(report.list_text())
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench/run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)

    # The traced run is the same whatever the workload: it walks the
    # layers on its own fixture.  One run serves "all".
    names = list(registry.workload_names()) if args.workload == "all" else [args.workload]
    if args.trace and args.workload == "all":
        names = names[:1]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    sets: List[List[dict]] = []
    try:
        for _ in range(args.repeat):
            sets.append([])
            for name in names:
                spans = args.out / "spans.json" if args.out and args.trace else None
                run = _one_run(args, name, spans)
                sets[-1].append(run)
                _print_run(run, bool(args.trace))
    except KeyboardInterrupt:
        print("bench/run.py: interrupted; cleaned up", file=sys.stderr)
        return 130
    except Exception:  # noqa: BLE001 - boundary: report, clean exit code, no result line
        traceback.print_exc()
        return 2

    if args.repeat > 1 and not args.trace:
        print(report.repeat_text([
            {run["workload"]: {n: e["value"] for n, e in run["metrics"].items()} for run in runs}
            for runs in sets
        ]))
        print()
    if args.out is not None:
        document = {
            "host": report.host_fingerprint(),
            "calibration": report.calibrate(),
            "args": {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items()},
            "sets": sets,
        }
        (args.out / "results.json").write_text(json.dumps(document, indent=1), encoding="utf-8")

    every = [run for runs in sets for run in runs]
    if len(every) == 1:
        print(json.dumps(_contract_line(every[0])))
    else:
        print(json.dumps({
            "correct": all(run["correct"] for run in every),
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "runs": [{"workload": run["workload"], **_contract_line(run)} for run in every],
        }))
    return 0 if all(run["correct"] for run in every) else 1


if __name__ == "__main__":
    sys.exit(main())
