"""`serve-tier`, `serve-chaos` and `chaos`: serving-layer experiment drivers.

``run_serve_tier`` is the latency-baseline recorder: it sweeps offered
load over the same seeded heavy-tailed workload and reports, per step,
the p50/p95/p99 end-to-end latency, shed-rate breakdown and goodput of
the sharded tier — all on the virtual clock
(:func:`repro.serve.loadgen.simulate_tier`), so the recorded
``BENCH_serving.json`` series is byte-reproducible under a pinned seed,
the same determinism contract the engine's modeled-throughput bench
makes.  The shape to read: latency flat while the tier has headroom,
then the p99 knee, then shedding replaces queueing — the serving-scale
version of the paper's bounded-FIFO backpressure story.

``run_serve_chaos`` is the wall-clock counterpart: a live
:class:`~repro.serve.sharding.ShardedEngine` (real threads, real
breakers) behind an :class:`~repro.serve.gateway.AdmissionGateway`,
replaying a time-compressed trace while a seeded
:class:`~repro.engine.resilience.FaultPlan` kills a worker and wedges
batches.  The claim it checks is graceful degradation: every admitted
job resolves (result or typed error — zero unresolved handles), sheds
are typed, and routing reroutes around shards whose breakers opened.
``run_chaos`` is its one-shard preset: three workers behind one queue,
the engine-level resilience scenario.
"""

from __future__ import annotations

from repro.engine.bench import _resolve_plan
from repro.engine.resilience import FaultPlan, FaultRule
from repro.harness.experiments import ExperimentResult
from repro.serve.gateway import AdmissionGateway, TenantPolicy
from repro.serve.loadgen import (
    TierSpec,
    WorkloadSpec,
    generate_trace,
    job_from_event,
    offered_load_sweep,
    replay_trace,
)
from repro.serve.sharding import ShardedEngine

__all__ = [
    "DEFAULT_LOAD_MULTIPLIERS",
    "default_serve_chaos_plan",
    "run_chaos",
    "run_serve_tier",
    "run_serve_chaos",
]

#: offered-load steps, as multiples of the workload spec's base rate;
#: spans comfortable headroom through the p99 knee into overload (the
#: 16x step is past the shed wall: goodput plateaus while offered load
#: doubles)
DEFAULT_LOAD_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def run_serve_tier(
    n_jobs: int = 2000,
    rate_jps: float = 1500.0,
    n_shards: int = 4,
    workers_per_shard: int = 2,
    queue_depth: int = 64,
    max_batch: int = 8,
    seed: int = 20170529,
    multipliers: tuple = DEFAULT_LOAD_MULTIPLIERS,
    deadline_s: float | None = 0.025,
    deadline_fraction: float = 0.25,
    tenant_rate: float = 150.0,
    tenant_burst: float = 300.0,
    spill: int = 1,
    faults=None,
) -> ExperimentResult:
    """Offered-load sweep of the sharded tier on the virtual clock.

    One row per load multiplier; deterministic for a given seed.
    ``tools/record_bench.py --suite serving`` records the default run
    as ``BENCH_serving.json``, and ``tools/check_bench.py`` gates every
    value in it exactly.
    ``faults`` is a live :class:`~repro.engine.resilience.FaultPlan`,
    a plan dict or a path to a plan JSON file (``--faults PLAN.json``).
    The default plan fails ~3 % of batch attempts, each failed job
    retried on a worker that has not failed it, so the default run
    exercises the full resilience surface with one spill hop around
    full shards: the recorded baseline's retry/spill counts and p99
    exemplars are living regression subjects, not zeros.  An empty
    ``FaultPlan()`` disables fault injection.
    """
    spec = WorkloadSpec(
        seed=seed,
        n_jobs=n_jobs,
        rate_jps=rate_jps,
        deadline_s=deadline_s,
        deadline_fraction=deadline_fraction,
    )
    tier = TierSpec(
        n_shards=n_shards,
        workers_per_shard=workers_per_shard,
        queue_depth=queue_depth,
        max_batch=max_batch,
        tenant_policy=TenantPolicy(rate=tenant_rate, burst=tenant_burst),
        spill=spill,
    )
    plan = _resolve_plan(faults) or FaultPlan(
        [FaultRule(scope="batch", mode="fail", probability=0.03)], seed=0
    )
    steps = offered_load_sweep(spec, list(multipliers), tier, faults=plan)
    rows = [
        [
            f"{step['load_multiplier']:g}x",
            f"{step['offered_jps']:.0f}",
            step["completed"],
            f"{100.0 * step['shed_rate']:.1f}%",
            f"{1e3 * step['latency_s']['p50']:.2f}",
            f"{1e3 * step['latency_s']['p99']:.2f}",
            f"{step['throughput_jps']:.0f}",
            f"{step['mean_batch_occupancy']:.2f}",
            step["retries"],
            step["spilled"],
        ]
        for step in steps
    ]
    knee = next(
        (s for s in steps if s["shed_rate"] > 0.01),
        None,
    )
    notes = (
        f"tier: {n_shards} shards x {workers_per_shard} workers, "
        f"queue depth {queue_depth}, batch <= {max_batch}; "
        f"workload: Pareto arrivals/sizes, Zipf tenants over "
        f"{spec.n_users:,} users, seed {seed}."
    )
    if knee is not None:
        notes += (
            f"  Shedding passes 1% at {knee['load_multiplier']:g}x "
            f"({knee['offered_jps']:.0f} jobs/s offered)."
        )
    return ExperimentResult(
        experiment=(
            f"serve-tier: {n_jobs} jobs/step over "
            f"{len(steps)} offered-load steps, "
            f"{n_shards}x{workers_per_shard} tier"
        ),
        headers=[
            "offered load", "jobs/s offered", "completed", "shed",
            "p50 [ms]", "p99 [ms]", "goodput [jobs/s]", "batch occupancy",
            "retries", "spilled",
        ],
        rows=rows,
        series={
            "steps": steps,
            "workload": {
                "seed": seed,
                "n_jobs": n_jobs,
                "base_rate_jps": rate_jps,
                "arrival_alpha": spec.arrival_alpha,
                "size_alpha": spec.size_alpha,
                "zipf_s": spec.zipf_s,
                "n_users": spec.n_users,
                "deadline_s": deadline_s,
                "deadline_fraction": deadline_fraction,
            },
            "tier": {
                "n_shards": n_shards,
                "workers_per_shard": workers_per_shard,
                "queue_depth": queue_depth,
                "max_batch": max_batch,
                "spill": spill,
            },
            "faults": plan.to_dict(),
        },
        notes=notes,
    )


def default_serve_chaos_plan(seed: int = 20170529) -> FaultPlan:
    """Tier-scale faults: kill a worker on shard 0, wedge ~5% of batches.

    Worker names are per-shard (``s0w1`` is shard 0's second worker),
    so the kill degrades exactly one shard — the case consistent-hash
    rerouting and breaker-aware routing exist for.
    """
    rules = [
        FaultRule(scope="worker", mode="kill", match="s0w1", after_batches=1),
        FaultRule(scope="batch", mode="wedge", probability=0.05, wedge_s=0.05),
        FaultRule(scope="job", mode="fail", probability=0.03),
    ]
    return FaultPlan(rules=rules, seed=seed)


def run_serve_chaos(
    n_jobs: int = 300,
    n_shards: int = 4,
    workers_per_shard: int = 2,
    queue_depth: int = 32,
    max_batch: int = 8,
    seed: int = 20170529,
    rate_jps: float = 200.0,
    speedup: float = 20.0,
    faults=None,
) -> ExperimentResult:
    """Replay a trace against a live faulted tier; prove graceful decay.

    Accepts ``faults`` as a plan/dict/path like ``serve-bench``.  The
    acceptance claim is in the last row: zero unresolved futures after
    drain.
    """
    plan = _resolve_plan(faults) or default_serve_chaos_plan(seed)
    # small payloads: the wall-clock replay really computes them
    spec = WorkloadSpec(
        seed=seed, n_jobs=n_jobs, rate_jps=rate_jps, deadline_s=5.0,
        deadline_fraction=0.2, size_min=2048, size_cap=16384,
    )
    trace = generate_trace(spec)
    # price each batch key first: measuring its path rates inside the
    # wall-clock replay would stall the sender
    for job in {j.batch_key(): j for j in map(job_from_event, trace)}.values():
        job.rejection_rate()
    with ShardedEngine(
        n_shards=n_shards,
        n_workers=workers_per_shard,
        queue_depth=queue_depth,
        max_batch=max_batch,
        faults=plan,
        breaker_config={"failure_threshold": 2, "cooldown_s": 0.2},
        spill=2,
    ) as tier:
        gateway = AdmissionGateway(
            tier,
            default_policy=TenantPolicy(rate=100.0, burst=50.0),
        )
        outcomes = replay_trace(gateway, trace, speedup=speedup)
        tier.drain(timeout=60.0)
        tier_stats = tier.stats_dict()
    breakers_opened = sum(
        snap.get("times_opened", 0)
        for shard in tier_stats["shards"].values()
        for snap in shard["breakers"].values()
    )
    faults_injected = {}
    for shard in tier_stats["shards"].values():
        for mode, count in shard["faults_injected"].items():
            faults_injected[mode] = faults_injected.get(mode, 0) + count
    tm = tier_stats["tier_metrics"]
    rows = [[
        n_jobs,
        outcomes["completed"],
        outcomes["throttled"],
        outcomes["queue_shed"],
        outcomes["deadline_shed"],
        outcomes["failed"],
        tm.get("tier.reroutes_shed", 0) + tm.get("tier.reroutes_breaker", 0),
        breakers_opened,
        outcomes["unresolved"],
    ]]
    return ExperimentResult(
        experiment=(
            f"serve-chaos: {n_jobs} jobs vs {n_shards}-shard tier, "
            f"fault-plan seed {plan.seed}"
        ),
        headers=[
            "jobs", "completed", "throttled", "queue shed",
            "deadline shed", "failed", "reroutes", "breakers opened",
            "unresolved",
        ],
        rows=rows,
        series={
            "outcomes": {
                k: v for k, v in outcomes.items() if k != "latency_s"
            },
            "latency_s": outcomes["latency_s"],
            "tier": tier_stats,
            "gateway": gateway.snapshot(),
            "faults_injected": faults_injected,
            "plan": plan.to_dict(),
        },
        notes=(
            "graceful degradation: every admitted job resolved "
            f"({outcomes['unresolved']} unresolved); sheds are typed; "
            f"{breakers_opened} breaker openings rerouted traffic "
            "around the degraded shard."
        ),
    )


def run_chaos(faults=None) -> ExperimentResult:
    """The `chaos` preset: :func:`run_serve_chaos` on one shard.

    Three workers behind one queue, deep enough that no job is shed as
    queue-full, so every job meets the plan: the default plan kills
    ``s0w1``, wedges batches and fails jobs, and every job still ends
    in a result or a typed error.
    """
    return run_serve_chaos(
        n_jobs=96, n_shards=1, workers_per_shard=3, queue_depth=96,
        faults=faults,
    )
