"""Metric catalogue of the benchmark, shared by ``run.py`` and the tests.

Every workload reports every metric of its kind: the end-to-end set on
untraced runs, the per-layer set on traced runs.  A per-layer metric of
a layer the workload never enters reads 0 (no calls, no time).
``BENCHMARK.json`` lists the same names; ``bench/tests`` keeps the two
in step.

This module imports nothing from ``repro`` so ``run.py`` can validate
names before any child process exists.
"""

from __future__ import annotations

import os
import resource

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which a metric may worsen before a change is a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.2),
)

#: process classes whose ``tick`` the simulator workloads time
SIM_CLASSES = (
    "VectorGammaRNGProcess",
    "GammaRNGProcess",
    "PricingProcess",
    "TransferEngine",
    "AggregatingTransferEngine",
    "DummySource",
    "MemoryChannel",
)

#: (name, unit, better)
PER_LAYER = (
    *((f"core.tick_ns.{cls}", "ns", "lower") for cls in SIM_CLASSES),
    *((f"core.ticks.{cls}", "count", "lower") for cls in SIM_CLASSES),
    ("core.lanes.pop_ns", "ns", "lower"),
    ("core.lanes.pops", "count", "lower"),
    ("core.fastpath.skipped_frac", "ratio", "higher"),
    ("core.fastpath.probe_ns", "ns", "lower"),
    ("core.fastpath.skip_s", "s", "lower"),
    ("core.loop.self_frac", "ratio", "lower"),
    ("serve.gateway.admit_us", "us", "lower"),
    ("serve.ring.submit_us", "us", "lower"),
    ("engine.submit_us", "us", "lower"),
    ("engine.queue.put_us", "us", "lower"),
    ("serve.bridge.resolve_us", "us", "lower"),
    ("engine.queue.wait_ms.p50", "ms", "lower"),
    ("engine.queue.wait_ms.p99", "ms", "lower"),
    ("engine.batch.size_mean", "count", "higher"),
    ("engine.batch.count", "count", "lower"),
    ("engine.worker.execute_ms.p50", "ms", "lower"),
    ("engine.worker.execute_ms.p99", "ms", "lower"),
    ("engine.worker.busy_frac", "ratio", "lower"),
    ("engine.job.compute_ms", "ms", "lower"),
    ("engine.job.device_model_us", "us", "lower"),
    ("opencl.timeline_us", "us", "lower"),
    ("opencl.retained_mb", "MB", "lower"),
    ("opencl.retained_objects", "count", "lower"),
    ("mem.rss_growth_mb", "MB", "lower"),
    ("serve.ring.spilled", "count", "lower"),
    ("serve.ring.shard_skew", "ratio", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

WORKLOADS = ("sim-decoupled", "sim-transfer", "pipeline", "serve-small", "serve-large")

#: self times must sum to the traced wall time within this share
SELF_SUM_TOLERANCE = 0.05


def units(trace: bool) -> dict[str, str]:
    """Metric name → unit for an untraced (False) or traced (True) run."""
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return {name: unit for name, unit, _, _ in END_TO_END}


def render(values: dict[str, float], trace: bool) -> dict[str, dict]:
    """The result's ``metrics`` object: every metric of the run's kind.

    Per-layer metrics the workload did not produce read 0; an
    end-to-end metric is never optional, so a missing one raises.
    """
    out = {}
    for name, unit in units(trace).items():
        if name not in values and not trace:
            raise KeyError(f"workload did not measure {name}")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return out


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Current resident set size, in MiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
