"""Metric primitives aggregated from trace events (or updated directly).

Three shapes, mirroring what a production metrics pipeline exports:

* :class:`Counter` — monotonically increasing count (packets sent, ...);
* :class:`Gauge` — instantaneous level (resident endpoints, queue depth);
* :class:`Histogram` — distribution summarized with power-of-two buckets
  plus count/sum/min/max, cheap enough for hot-path observation.

A :class:`MetricRegistry` keys instruments by name plus a frozen label
set (typically ``node=...``/``ep=...``) and flattens to a plain dict for
:mod:`repro.bench.reporting`.  Like the trace bus, updating a metric
never touches simulated time, RNG streams, or the event heap.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]


class Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0
        self.max_value = 0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def inc(self, n: float = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1) -> None:
        self.value -= n


class Histogram:
    """Power-of-two bucketed distribution (bucket i counts values < 2**i)."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: dict[int, int] = {}

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        b = max(0, int(v).bit_length()) if v > 0 else 0
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket boundaries."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= target:
                return float(2 ** b)
        return float(self.max or 0)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min or 0,
            "max": self.max or 0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


def _label_key(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={labels[k]}" for k in sorted(labels)) + "}"


class MetricRegistry:
    """Instruments keyed by name + labels; flattens for reporting."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = name + _label_key(labels)
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = cls()
        return m

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        return iter(sorted(self._metrics.items()))

    def flat(self) -> dict[str, float]:
        """One flat dict: counters/gauges to values, histograms expanded."""
        out: dict[str, float] = {}
        for key, m in self:
            if isinstance(m, Counter):
                out[key] = m.value
            elif isinstance(m, Gauge):
                out[key] = m.value
                out[key + ".max"] = m.max_value
            else:
                for stat, v in m.summary().items():
                    out[f"{key}.{stat}"] = v
        return out
