"""Timing statistics: the one repeat-and-summarise loop and the one
comparison rule of the repository.

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

``npb bench --compare`` and ``npb loadgen --compare`` judge every row
through :func:`compare` by :func:`verdict`, the median/interquartile-spread
rule of ``benchmarks/e2e/compare.py`` (a test holds the two copies equal).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence


#: Median of a non-empty sequence (empty: ``StatisticsError``, a
#: ``ValueError``).
median = statistics.median


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


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median; 0.0 below two samples."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> tuple[str, float]:
    """(verdict, change) of samples ``b`` against ``a``; ``better`` is
    ``"lower"`` or ``"higher"``.

    ``change`` is B's median against A's as a share of A's, positive when
    B is worse.  ``worse``: change > ``bound``; ``better``: B gains more
    than either set's spread, or that spread exceeds ``bound`` and every
    run of B beats every run of A; ``unresolved``: that spread without
    the domination, an empty set, or A's median 0 (where the copy in
    ``benchmarks/e2e/compare.py`` divides by zero); else ``unchanged``.
    """
    if not a or not b or median(a) == 0:
        return "unresolved", float("nan")
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (median(b) - median(a)) / median(a)
    noise = max(spread(a), spread(b))
    if noise > bound:
        beats = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if beats else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < 0 and -change > noise:
        return "better", change
    return "unchanged", change


VERDICTS = ("worse", "better", "unchanged", "unresolved")


def compare(
    base: Mapping[str, Sequence[float]],
    cand: Mapping[str, Sequence[float]],
    better: str | Callable[[str], str],
    bound: float,
) -> dict:
    """One :func:`verdict` row per key the two sample maps share.

    ``better`` is a direction for every row, or a function of the key.
    Keys only in ``base`` are listed as ``missing``, keys only in
    ``cand`` as ``added``; ``counts`` tallies the rows by verdict.
    """
    rows = []
    for key in (k for k in base if k in cand):
        a, b = list(base[key]), list(cand[key])
        direction = better(key) if callable(better) else better
        outcome, change = verdict(a, b, direction, bound)
        rows.append(
            {
                "id": key,
                "base": median(a) if a else None,
                "cand": median(b) if b else None,
                "spread_base": spread(a),
                "spread_cand": spread(b),
                "runs": [len(a), len(b)],
                "change": None if change != change else change,
                "verdict": outcome,
            }
        )
    return {
        "bound": bound,
        "rows": rows,
        "missing": [k for k in base if k not in cand],
        "added": [k for k in cand if k not in base],
        "counts": {v: sum(row["verdict"] == v for row in rows) for v in VERDICTS},
    }


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
