"""Timing statistics: the one repeat-and-summarise loop of the repository.

The NPB tradition (and the source paper's methodology) reports the *best*
of k repeats: the minimum is the run least perturbed by the OS, and on an
otherwise idle machine it converges to the true cost of the code.  The
median-absolute-deviation (MAD) of the repeats is kept alongside as the
noise bar -- unlike the standard deviation it is robust to the occasional
descheduled outlier that shared CI runners produce.

Everything that times code in this repository summarizes its repeats
through :func:`summarize`: ``npb bench`` cells, and through them the
measured ``npb table``s, take whole-benchmark times from
``NPBenchmark.run()``; every smaller callable (Table 1 operations, Table 7
factorizations, the JGF kernels) goes through :func:`time_callable`, the
only ``perf_counter`` pair of the harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (no numpy needed on this path)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sequence")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: Sequence[float], center: float | None = None) -> float:
    """Median absolute deviation around ``center`` (default: the median)."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Matches numpy's default (``linear``) interpolation so latency
    percentiles reported by the load generator agree with any offline
    numpy analysis of the same trace -- without pulling numpy onto this
    dependency-free path.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def noise_band(
    base: float, noise: float, tolerance: float, k: float, abs_slack: float
) -> float:
    """Relative change of ``base`` tolerated before a verdict.

    ``max(tolerance, k * noise / base, abs_slack / base)``: the static
    tolerance, widened by the measured run-to-run noise (a MAD, in the
    unit of ``base``), widened again for a ``base`` so small that one
    scheduler quantum dwarfs it.  Both comparators (``npb bench`` and
    ``npb loadgen --compare``) judge by it, so a measurement that
    scatters gates itself more loosely instead of flapping.
    """
    base = max(float(base), 1e-12)
    return max(tolerance, k * noise / base, abs_slack / base)


def band_verdict(ratio: float, band: float, higher_is_better: bool = False) -> str:
    """regression | improved | ok: candidate/base ``ratio`` vs its noise band."""
    if higher_is_better:
        worse, better = ratio < 1.0 / (1.0 + band), ratio > 1.0 + band
    else:
        worse, better = ratio > 1.0 + band, ratio < 1.0 - band
    return "regression" if worse else "improved" if better else "ok"


@dataclass(frozen=True)
class TimingSummary:
    """Min-of-k timing of one measured cell, with a robust noise bar."""

    times: tuple[float, ...]
    best: float
    median: float
    mad: float

    @property
    def repeats(self) -> int:
        return len(self.times)

    def as_dict(self) -> dict:
        """The timing fields of a ``BENCH_*.json`` cell."""
        return {
            "repeats": self.repeats,
            "times_seconds": list(self.times),
            "best_seconds": self.best,
            "median_seconds": self.median,
            "mad_seconds": self.mad,
        }


def summarize(times: Iterable[float]) -> TimingSummary:
    """Summarize one cell's repeat times (min-of-k + median + MAD)."""
    ordered = tuple(float(t) for t in times)
    if not ordered:
        raise ValueError("summarize() needs at least one timing")
    mid = median(ordered)
    return TimingSummary(
        times=ordered,
        best=min(ordered),
        median=mid,
        mad=mad(ordered, center=mid),
    )


def time_callable(
    fn: Callable[[], object],
    repeat: int = 1,
    setup: Callable[[], object] | None = None,
) -> TimingSummary:
    """Time ``fn`` ``repeat`` times (running ``setup`` untimed before each)."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    times = []
    for _ in range(repeat):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return summarize(times)
