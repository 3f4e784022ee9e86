"""repro.serve — sharded async admission tier over the execution engine.

The serving story at a glance::

    asyncio callers
        │  AdmissionGateway   per-tenant token buckets,
        │                     deadline-aware pre-shedding,
        │                     JobHandle → asyncio.Future bridge
        ▼
    ShardedEngine            consistent-hash ring keyed on batch_key,
        │                    spillover + breaker-aware rerouting
        ▼
    ExecutionEngine × N      each shard: bounded FIFO, device workers
                             that form §III-E batches at pickup

:mod:`repro.serve.loadgen` generates seeded heavy-tailed traffic and
replays it either on a deterministic virtual clock (the recorded
``BENCH_serving.json`` baseline) or against the live tier on the wall
clock (smoke tests, chaos runs).
"""

from repro.serve.bench import (
    DEFAULT_LOAD_MULTIPLIERS,
    default_serve_chaos_plan,
    run_serve_chaos,
    run_serve_tier,
)
from repro.serve.gateway import (
    AdmissionGateway,
    ServiceEstimate,
    TenantPolicy,
    TenantThrottled,
    TokenBucket,
)
from repro.serve.loadgen import (
    TierSpec,
    TraceEvent,
    WorkloadSpec,
    generate_trace,
    job_from_event,
    offered_load_sweep,
    replay_trace,
    simulate_tier,
    trace_from_json,
    trace_to_json,
)
from repro.serve.sharding import ShardedEngine, ShardRing, stable_hash

__all__ = [
    "AdmissionGateway",
    "DEFAULT_LOAD_MULTIPLIERS",
    "ServiceEstimate",
    "ShardedEngine",
    "ShardRing",
    "TenantPolicy",
    "TenantThrottled",
    "TierSpec",
    "TokenBucket",
    "TraceEvent",
    "WorkloadSpec",
    "default_serve_chaos_plan",
    "generate_trace",
    "job_from_event",
    "offered_load_sweep",
    "replay_trace",
    "run_serve_chaos",
    "run_serve_tier",
    "simulate_tier",
    "stable_hash",
    "trace_from_json",
    "trace_to_json",
]
