"""Experiment harness: one driver per paper table/figure.

* :mod:`repro.harness.configs` — the Table I configuration registry,
* :mod:`repro.harness.experiments` — ``run_table1`` … ``run_fig9``,
  each returning a structured result with paper-vs-measured fields,
* :mod:`repro.harness.reporting` — plain-text tables and series.
"""

from repro.harness import registry
from repro.harness.configs import CONFIGURATIONS, Configuration
from repro.harness.reporting import format_series, format_table
from repro.harness.session import KernelSession, SessionResult
from repro.harness.experiments import (
    run_buffer_combining,
    run_eq1,
    run_fig2,
    run_fig3,
    run_variance_sweep,
    run_fig5a,
    run_fig5b,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_rejection_rates,
    run_table1,
    run_table2,
    run_table3,
)

# drivers living outside the harness register lazily so importing the
# harness never pulls them in (the engine imports the harness, not vice
# versa); the registry resolves the spec on first use
registry.register_lazy(
    "serve-bench",
    "repro.engine.bench:run_serve_bench",
    "execution-engine throughput vs serial execution",
)
registry.register_lazy(
    "chaos",
    "repro.serve.bench:run_chaos",
    "serve-chaos on one 3-worker shard: resilience under a seeded "
    "fault plan (deadlines, retries, circuit breakers)",
)
registry.register_lazy(
    "fifo-prune",
    "repro.harness.sweeps:run_fifo_prune",
    "FIFO sizing: every depth simulated, the smallest adequate one "
    "recommended",
)
registry.register_lazy(
    "sweep-prune",
    "repro.harness.sweeps:run_sweep_prune",
    "burst x channels sweep: every point simulated, the exact Pareto "
    "frontier",
)
registry.register_lazy(
    "timing-prune",
    "repro.harness.sweeps:run_timing_prune",
    "replication vs timing-closure sweep: every point simulated, the "
    "exact frontier (slice cost axis, frequency-derated wall time)",
)
registry.register_lazy(
    "pipeline",
    "repro.harness.pipelines:run_pipeline",
    "pipe-connected 3-region pricing pipeline: pipelined vs fused vs "
    "sequential, plus the 1-vs-2 channel-affinity split",
)
registry.register_lazy(
    "serve-tier",
    "repro.serve.bench:run_serve_tier",
    "sharded serving tier under heavy-tailed load: "
    "p50/p99 latency + shed rate per offered-load step",
)
registry.register_lazy(
    "serve-chaos",
    "repro.serve.bench:run_serve_chaos",
    "live sharded tier + admission gateway under a seeded "
    "fault plan (reroutes, typed sheds, zero unresolved jobs)",
)

__all__ = [
    "registry",
    "Configuration",
    "CONFIGURATIONS",
    "format_table",
    "format_series",
    "run_fig2",
    "run_fig3",
    "run_variance_sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig5a",
    "run_fig5b",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_eq1",
    "run_rejection_rates",
    "run_buffer_combining",
    "KernelSession",
    "SessionResult",
]
