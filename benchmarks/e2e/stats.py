"""Summaries the benchmark reports: medians, percentiles, spreads, host stamp."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10

median = statistics.median


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by nearest rank: the smallest
    sample that at least ``q`` % of the samples do not exceed.

    Always one of the samples, never a value interpolated between two:
    the workloads mix cells whose latencies differ a hundredfold, and a
    percentile falling between two cells' modes would describe neither.
    """
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered) - 1e-9)
    return float(ordered[max(rank, 1) - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(n * (1.0 - q / 100.0) + 1e-9))


def reportable(n: int, q: float) -> bool:
    """Whether ``n`` samples carry the ``q``-th percentile."""
    return samples_beyond(n, q) >= MIN_SAMPLES_BEYOND


geomean = statistics.geometric_mean


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --------------------------------------------------------------------- #
# host stamp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the largest cache the first CPU reports, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        indexes = os.listdir(base)
    except OSError:
        return None
    for index in indexes:
        try:
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            best = max(best or 0, int(digits) * scale)
    return best


def mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_stamp(root: str, seed: int) -> dict:
    """What makes two result sets comparable, or explains why not."""
    import numpy

    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "undersized_host": nproc < 2,
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
    }
