"""Shared percentile mathematics for every latency/series summary.

One implementation feeds the engine's :func:`repro.engine.stats.summarize`,
the observability histograms (:class:`repro.obs.metrics.Histogram`) and
the stall-attribution report, so "p95" means the same thing at every
layer.  The estimator is the linear-interpolation quantile (numpy's
default, type 7 in the Hyndman-Fan taxonomy): for ``q = 0.5`` it equals
``statistics.median`` on both odd and even lengths, and for small series
it never collapses to the maximum the way the old nearest-above-rank
index (``int(0.95 * n)``) did.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "summarize"]


def percentile(values: list[float], q: float) -> float:
    """Interpolated ``q``-quantile (``0 <= q <= 1``) of a series.

    Empty input returns 0.0 (the empty-safe convention every report in
    this repo uses).  The input does not need to be sorted.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def summarize(values: list[float]) -> dict[str, float]:
    """count + mean/p50/p95/p99/max summary of a series (empty-safe).

    ``p50`` is exactly ``statistics.median`` (the interpolated quantile
    reduces to it); ``p95``/``p99`` are the interpolated percentiles
    rather than an index that rounds up to the maximum on short series.
    ``p99`` is the tail every serving SLO is written against — the
    serve-tier benchmark records its trajectory per offered-load step.

    An empty series keeps the zero-filled shape (callers that render
    tables rely on the keys existing) but says so via ``count``: a p99
    of 0.0 from zero samples is *absence of evidence*, not a perfectly
    fast tail, so consumers must check ``count`` instead of trusting
    the zeros.
    """
    if not values:
        return {
            "count": 0,
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }
    return {
        "count": len(values),
        "mean": statistics.fmean(values),
        "p50": float(statistics.median(values)),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
        "max": float(max(values)),
    }
