"""Host fingerprint, calibration kernel, and the printed tables.

The fingerprint and the calibration times are recorded, never gated
on: they exist so that entries measured on different machines can be
normalised against each other.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from statistics import median
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

import registry


def host_fingerprint() -> Dict[str, object]:
    """Cores, interpreter, NumPy and BLAS build of this machine."""
    blas: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):  # NumPy without mode="dicts"
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        usable = os.cpu_count() or 1
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "environment": {
            name: os.environ[name]
            for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMPY_MADVISE_HUGEPAGE",
            )
            if name in os.environ
        },
    }


def calibrate() -> Dict[str, float]:
    """Time two fixed-size NumPy kernels (median of 5 each).

    ``calib_matmul_ms`` is a float32 gemm shaped like a dense score
    block; ``calib_popcount_ms`` counts bits over a packed block.  They
    use NumPy only — never ``repro`` — so they move with the machine,
    not with the code under test.
    """
    rng = np.random.default_rng(0)
    left = rng.standard_normal((256, 8192), dtype=np.float32)
    right = rng.standard_normal((8192, 256), dtype=np.float32)
    packed = rng.integers(0, 256, size=(2048, 1024), dtype=np.uint8)

    def best(kernel) -> float:
        kernel()  # BLAS and allocator warm-up, untimed
        times = []
        for _ in range(5):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return 1000.0 * median(times)

    return {
        "calib_matmul_ms": best(lambda: left @ right),
        "calib_popcount_ms": best(lambda: np.unpackbits(packed, axis=1).sum(axis=1)),
    }


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}"


def list_text() -> str:
    """Everything ``--list`` prints: workloads, metrics, ladder."""
    lines = ["workloads:"]
    for workload in registry.WORKLOADS:
        lines.append(f"  {workload.name}")
        lines.append(f"      {workload.why}")
    lines.append("")
    lines.append("end-to-end metrics (every workload reports every one):")
    for metric in registry.END_TO_END:
        lines.append(
            f"  {metric.name:<22} {metric.unit:<5} {metric.better:<7}"
            f" bound {metric.bound:.0%}"
        )
    lines.append("")
    lines.append("per-layer metrics (--trace 1; * = repeats exactly for a seed):")
    for metric in registry.PER_LAYER:
        star = "*" if metric.exact else " "
        moves = f"  -> {metric.moves}" if metric.moves else ""
        lines.append(f" {star}{metric.name:<34} {metric.unit:<6} {metric.better:<7}{moves}")
    lines.append("")
    lines.append("tax ladder (bottom rung first):")
    for label, name in registry.LADDER:
        lines.append(f"  {label:<30} {name}")
    return "\n".join(lines)


def metrics_text(title: str, metrics: Mapping[str, Mapping[str, object]]) -> str:
    """A name / value / unit table."""
    width = max(len(name) for name in metrics)
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {_fmt(float(entry['value'])):>12} {entry['unit']}")
    return "\n".join(lines)


def details_text(details: Mapping[str, object]) -> str:
    """The extra, ungated numbers of a workload run, on one line each."""
    return "\n".join(
        f"  ({name}: {_fmt(value) if isinstance(value, float) else value})"
        for name, value in details.items()
    )


def ladder_text(values: Mapping[str, float]) -> str:
    """The wrapper tax ladder: q/s per rung and the ratio over the rung below."""
    lines = [
        "tax ladder (open-mode queries/s on one fixture; ratio = this rung "
        "over the rung beneath it)"
    ]
    below: Optional[float] = None
    for label, name in registry.LADDER:
        value = values.get(name)
        if value is None:
            continue
        ratio = f"{value / below:6.2f}x" if below else "  base"
        lines.append(f"  {label:<30} {_fmt(value):>10} q/s  {ratio}")
        below = value
    return "\n".join(lines)


def repeat_text(runs: Sequence[Mapping[str, Mapping[str, float]]]) -> str:
    """Compare repeated sets of runs, per end-to-end metric and workload.

    ``runs[i][workload][metric]`` is a value.  The relative difference
    is that of the worst later run against the first, in the direction
    that counts as worse; it is inside the bound or it is not.
    """
    lines = ["repeat comparison (values per run; worst change vs run 1; bound)"]
    for workload in runs[0]:
        lines.append(f"  {workload}")
        for metric in registry.END_TO_END:
            values = [run[workload][metric.name] for run in runs if workload in run]
            first = values[0]
            if metric.better == "lower":
                worst = max(values[1:], default=first)
                change = (worst - first) / first
            else:
                worst = min(values[1:], default=first)
                change = (first - worst) / first
            verdict = "inside" if change <= metric.bound else "OUTSIDE"
            shown = ", ".join(_fmt(value) for value in values)
            lines.append(
                f"    {metric.name:<22} {shown:<34} {change:+7.1%}"
                f"  bound {metric.bound:.0%}  {verdict}"
            )
    return "\n".join(lines)
