"""Metrics: counters, gauges and fixed-bucket histograms.

Instruments are created lazily by name (dotted, e.g.
``store.appends.interactions``) from a :class:`MetricsRegistry`.  All
values recorded here are *deterministic* quantities — counts, sim-clock
seconds, byte sizes — never wall time, so the Prometheus export is
byte-identical across runs and worker counts.  Worker-process registries
are snapshotted into the shard summary record and merged back into the
parent's: counters and histogram buckets add, so the merged totals equal
what a sequential run counts in-process.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

#: Default histogram boundaries: powers of four from 1 — wide enough for
#: counts and byte sizes without per-call configuration.
DEFAULT_BOUNDARIES = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-boundary histogram (cumulative counts on export).

    ``boundaries`` are the upper bucket edges (inclusive); one overflow
    bucket catches everything above the last edge.  Fixed edges make two
    histograms mergeable bucket-by-bucket.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "total")

    def __init__(
        self, name: str, boundaries: tuple[float, ...] = DEFAULT_BOUNDARIES
    ) -> None:
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted and non-empty")
        self.name = name
        self.boundaries = tuple(float(edge) for edge in boundaries)
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    def snapshot(self) -> dict[str, Any]:
        """A JSON-compatible dump that :meth:`merge` consumes."""
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` in, bucket by bucket."""
        if tuple(snapshot["boundaries"]) != self.boundaries:
            raise ValueError("cannot merge histograms with different buckets")
        for index, bucket in enumerate(snapshot["bucket_counts"]):
            self.bucket_counts[index] += bucket
        self.count += snapshot["count"]
        self.total += snapshot["total"]


class MetricsRegistry:
    """Lazily-created named instruments plus snapshot/merge plumbing."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ---------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, boundaries: tuple[float, ...] = DEFAULT_BOUNDARIES
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, boundaries)
        elif histogram.boundaries != tuple(float(edge) for edge in boundaries):
            raise ValueError(
                f"histogram {name!r} already exists with boundaries "
                f"{histogram.boundaries}, not {boundaries}"
            )
        return histogram

    # ------------------------------------------------------ snapshot/merge

    def snapshot(self) -> dict[str, Any]:
        """A JSON-compatible dump that :meth:`merge` consumes."""
        return {
            "counters": {
                name: counter.value for name, counter in self._counters.items()
            },
            "gauges": {name: gauge.value for name, gauge in self._gauges.items()},
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a worker registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the snapshot's
        value (callers merge shards in shard order, so the outcome is
        deterministic).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name, tuple(data["boundaries"])).merge(data)

    # -------------------------------------------------------------- export

    def to_prometheus(self) -> str:
        """Prometheus text exposition, sorted by metric name.

        Dotted instrument names become underscore-separated with a
        ``seacma_`` prefix; counters gain the conventional ``_total``
        suffix and histograms emit cumulative ``_bucket`` series.
        """
        lines: list[str] = []
        for name in sorted(self._counters):
            metric = _prom_name(name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(self._counters[name].value)}")
        for name in sorted(self._gauges):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(self._gauges[name].value)}")
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for edge, bucket in zip(histogram.boundaries, histogram.bucket_counts):
                cumulative += bucket
                lines.append(
                    f'{metric}_bucket{{le="{_prom_value(edge)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {_prom_value(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n" if lines else ""


def _prom_name(name: str) -> str:
    cleaned = "".join(
        char if char.isalnum() or char == "_" else "_" for char in name
    )
    return f"seacma_{cleaned}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
