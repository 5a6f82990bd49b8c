"""Stdlib-only metrics with Prometheus text exposition.

Three instrument kinds, matching what the serving stack needs:

* :class:`Counter` -- monotonically increasing, optionally labelled
  (``jobs_total{benchmark="cg",state="done"}``);
* :class:`Gauge` -- last-set value, or *callback-backed* so scrapes
  read live service state (queue depth, pool leases) without the
  service pushing on every change;
* :class:`Histogram` -- log-bucketed (powers of ``growth`` from
  ``start``), which covers microseconds-to-minutes job latencies with
  a dozen buckets and no per-benchmark tuning.

Exposition follows the Prometheus text format (version 0.0.4): one
``# HELP`` / ``# TYPE`` pair per family, ``_bucket``/``_sum``/
``_count`` series with cumulative ``le`` for histograms.  Everything
is lock-guarded and cheap enough to update from the scheduler loop.
"""

from __future__ import annotations

import math
import resource
import threading
import time
from typing import Callable

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: str) -> str:
    out = str(value)
    for raw, escaped in _LABEL_ESCAPES.items():
        out = out.replace(raw, escaped)
    return out


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_key(labels: dict | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter family; ``inc`` with optional labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labels_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_labels_key(labels), 0.0)

    def total(self, **labels) -> float:
        """Sum over every series whose labels include ``labels``."""
        wanted = set(_labels_key(labels))
        with self._lock:
            return sum(v for key, v in self._values.items() if wanted <= set(key))

    def collect(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)]
        return [
            f"{self.name}{_format_labels(labels)} {_format_value(value)}"
            for labels, value in items
        ]


class Gauge:
    """Settable gauge family, optionally callback-backed.

    A callback gauge reads its value at scrape time -- the natural fit
    for "current queue depth" style metrics where the service already
    holds the truth and should not have to mirror it on every change.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        callback: Callable[[], float | dict] | None = None,
        label_name: str = "name",
    ):
        self.name = name
        self.help_text = help_text
        self.callback = callback
        #: label key used when a callback returns a dict of sub-series
        self.label_name = label_name
        self._lock = threading.Lock()
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_labels_key(labels)] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_labels_key(labels), 0.0)

    def collect(self) -> list[str]:
        if self.callback is not None:
            try:
                result = self.callback()
            except Exception:
                # a scrape must never 500 because one gauge's source
                # (e.g. a draining pool) raced shutdown
                result = {}
            if isinstance(result, dict):
                # {"<label value>": v} families keyed by self.label_name
                items = sorted(
                    (_labels_key({self.label_name: key}), float(value))
                    for key, value in result.items()
                )
                return [
                    f"{self.name}{_format_labels(labels)} "
                    f"{_format_value(value)}"
                    for labels, value in items
                ]
            return [f"{self.name} {_format_value(float(result))}"]
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)]
        return [
            f"{self.name}{_format_labels(labels)} {_format_value(value)}"
            for labels, value in items
        ]


DEFAULT_BUCKET_START = 0.001
DEFAULT_BUCKET_GROWTH = 4.0
DEFAULT_BUCKET_COUNT = 10


def log_buckets(
    start: float = DEFAULT_BUCKET_START,
    growth: float = DEFAULT_BUCKET_GROWTH,
    count: int = DEFAULT_BUCKET_COUNT,
) -> list[float]:
    """Upper bounds ``start * growth**i`` -- 1ms .. ~260s by default."""
    return [start * growth**i for i in range(count)]


class Histogram:
    """Log-bucketed histogram family with cumulative exposition."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: list[float] | None = None,
    ):
        self.name = name
        self.help_text = help_text
        self.buckets = sorted(buckets if buckets is not None else log_buckets())
        self._lock = threading.Lock()
        #: labels -> (per-bucket counts + overflow, sum, count)
        self._series: dict[
            tuple[tuple[str, str], ...], tuple[list[int], float, int]
        ] = {}

    def observe(self, value: float, **labels) -> None:
        key = _labels_key(labels)
        with self._lock:
            counts, total, n = self._series.get(
                key, ([0] * (len(self.buckets) + 1), 0.0, 0)
            )
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            self._series[key] = (counts, total + value, n + 1)

    def snapshot(self, **labels) -> dict:
        with self._lock:
            counts, total, n = self._series.get(
                _labels_key(labels), ([0] * (len(self.buckets) + 1), 0.0, 0)
            )
            return {"counts": list(counts), "sum": total, "count": n}

    def collect(self) -> list[str]:
        with self._lock:
            series = {
                labels: (list(counts), total, n)
                for labels, (counts, total, n) in sorted(self._series.items())
            }
        lines: list[str] = []
        for labels, (counts, total, n) in series.items():
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                bucket_labels = labels + (("le", _format_value(bound)),)
                lines.append(
                    f"{self.name}_bucket{_format_labels(bucket_labels)} "
                    f"{cumulative}"
                )
            cumulative += counts[-1]
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(
                f"{self.name}_bucket{_format_labels(inf_labels)} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_format_labels(labels)} "
                f"{_format_value(total)}"
            )
            lines.append(f"{self.name}_count{_format_labels(labels)} {n}")
        return lines


class MetricsRegistry:
    """Named instrument registry + the ``/metrics`` renderer."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help_text), Counter)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        callback: Callable | None = None,
        label_name: str = "name",
    ) -> Gauge:
        gauge = self._register(
            name,
            lambda: Gauge(name, help_text, callback, label_name),
            Gauge,
        )
        if callback is not None:
            gauge.callback = callback
            gauge.label_name = label_name
        return gauge

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: list[float] | None = None,
    ) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help_text, buckets), Histogram
        )

    def register(self, metric):
        """Adopt an instrument its owner built and counts on itself."""
        return self._register(metric.name, lambda: metric, type(metric))

    def _register(self, name: str, factory, expected):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, expected):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}"
                )
            return metric

    def render(self) -> str:
        """The full exposition body, terminated by a newline."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: list[str] = []
        for name, metric in metrics:
            help_text = metric.help_text or name
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.collect())
        return "\n".join(lines) + "\n"


CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_registry: MetricsRegistry | None = None
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry (one per daemon/coordinator)."""
    global _registry
    if _registry is None:
        with _registry_lock:
            if _registry is None:
                _registry = MetricsRegistry()
    return _registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Swap the process-global registry (tests); returns the old one."""
    global _registry
    with _registry_lock:
        old, _registry = _registry, registry
    return old


def process_rss_bytes() -> int:
    """Peak resident set of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux; this is the same number the
    loadgen/chaos leak checks previously shelled out to ``ps`` for.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


_process_start = time.time()


def process_uptime_seconds() -> float:
    return time.time() - _process_start
