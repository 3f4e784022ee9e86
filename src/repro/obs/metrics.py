"""Metrics primitives: counters, gauges and histograms under one registry.

The serving layers (engine, queue, workers) count what happened —
admissions, sheds, backpressure stalls — and observe latency series;
a :class:`MetricsRegistry` owns them by name so a whole subsystem can be
snapshotted into one plain dict for ``--json`` output or assertions.

All primitives are thread-safe (the engine increments from submitter,
worker and watchdog threads) and cheap: an uncontended lock plus an add.  The
histogram snapshot reuses :func:`repro.obs.percentiles.summarize`, the
same estimator the engine's latency report uses, so a histogram's "p95"
and ``EngineStats``'s "p95" are directly comparable.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Iterable

from repro.obs.percentiles import summarize

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "BoundedHistogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing count (events, jobs, sheds)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Gauge:
    """Last-written value (occupancy, inflight batches)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Histogram:
    """Value series summarized with the shared percentile estimator."""

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        with self._lock:
            self._values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    def values(self) -> list[float]:
        with self._lock:
            return list(self._values)

    def snapshot(self) -> dict[str, float]:
        """count + the shared mean/p50/p95/p99/max summary."""
        with self._lock:
            values = list(self._values)
        out = {"sum": float(sum(values))}
        out.update(summarize(values))
        # both histogram backends expose count as a float sample
        out["count"] = float(len(values))
        return out


class BoundedHistogram(Histogram):
    """Log-bucket histogram with O(buckets) memory, for soak runs.

    The exact :class:`Histogram` appends every observation forever —
    fine for a bounded benchmark, a leak on a tier that serves for
    days.  This backend keeps fixed geometric bucket boundaries
    (``growth`` ratio per bucket between ``lo`` and ``hi``, plus
    under/overflow), exact ``count``/``sum``/``min``/``max``, and
    estimates p50/p95/p99 by interpolating inside the bucket where the
    cumulative count crosses the rank.  With the default quarter-octave
    growth (≈19%/bucket) the percentile estimate's relative error is
    bounded by half a bucket width (≈9%), which is plenty for SLO
    dashboards; benchmarks that assert on exact percentiles keep the
    exact backend.

    ``snapshot()`` returns the same keys as the exact histogram
    (count/sum/mean/p50/p95/p99/max), so every consumer of a registry
    snapshot works unchanged.
    """

    def __init__(
        self,
        name: str,
        lo: float = 1e-6,
        hi: float = 1e4,
        growth: float = 2.0 ** 0.25,
    ):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        n = int(math.ceil(math.log(hi / lo) / math.log(growth)))
        #: upper edges of the finite buckets; index i covers
        #: (bounds[i-1], bounds[i]] with an underflow bucket below lo
        #: and an overflow bucket above the last edge
        self._bounds = [lo * growth**i for i in range(n + 1)]
        self._counts = [0] * (n + 3)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        v = float(value)
        idx = bisect.bisect_left(self._bounds, v) + 1 if v > 0 else 0
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def values(self) -> list[float]:
        raise TypeError(
            "BoundedHistogram keeps buckets, not raw values; use "
            "snapshot() or buckets()"
        )

    def buckets(self) -> list[tuple[float, int]]:
        """(upper edge, count) pairs for the non-empty buckets."""
        with self._lock:
            counts = list(self._counts)
        edges = [0.0] + self._bounds + [math.inf]
        return [
            (edges[i], c) for i, c in enumerate(counts) if c
        ]

    def _quantile_locked(self, q: float) -> float:
        """Interpolated quantile from the bucket cumulative counts."""
        rank = q * (self._count - 1)
        lo_edge = 0.0
        cum = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            hi_edge = (
                self._bounds[i - 1] if 0 < i <= len(self._bounds) else (
                    self._max if i > len(self._bounds) else 0.0
                )
            )
            if cum + c > rank:
                # interpolate inside this bucket, clamped to observed range
                frac = (rank - cum + 1.0) / c
                est = lo_edge + (hi_edge - lo_edge) * min(1.0, frac)
                return min(max(est, self._min), self._max)
            cum += c
            lo_edge = hi_edge
        return self._max

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            if self._count == 0:
                return {
                    "count": 0.0, "sum": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
                }
            out = {
                "count": float(self._count),
                "sum": self._sum,
                "mean": self._sum / self._count,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "max": self._max,
            }
        return out


class MetricsRegistry:
    """Named metrics of one subsystem, snapshottable as a plain dict.

    ``counter``/``gauge``/``histogram`` get-or-create by name, so
    instrumentation sites never coordinate: the first caller creates
    the metric, later callers share it.  Asking for an existing name
    with a different type raises.

    ``bounded_histograms=True`` makes :meth:`histogram` default to the
    :class:`BoundedHistogram` backend — what the long-running serve and
    engine registries use so a soak run's memory stays flat; the
    per-call ``bounded`` argument overrides either way, and the first
    creator of a name decides its backend.
    """

    def __init__(self, prefix: str = "", bounded_histograms: bool = False):
        self.prefix = prefix
        self.bounded_histograms = bounded_histograms
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, base=None):
        base = base or cls
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, base):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {base.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(Gauge, name)

    def histogram(self, name: str, bounded: bool | None = None) -> Histogram:
        if bounded is None:
            bounded = self.bounded_histograms
        cls = BoundedHistogram if bounded else Histogram
        return self._get(cls, name, base=Histogram)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """``{name: value-or-summary}`` over every registered metric."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            (f"{self.prefix}{name}" if self.prefix else name): m.snapshot()
            for name, m in sorted(metrics.items())
        }
