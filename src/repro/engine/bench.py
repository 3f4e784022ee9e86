"""`serve-bench`: the engine throughput driver.

``run_serve_bench`` builds a deterministic mix of gamma-draw jobs and
runs them twice —

1. **serial** — one device, one job per transaction (the host behaviour
   every pre-engine experiment in this repo uses): the engine itself
   with one worker and ``max_batch=1``, then
2. **engine** — bounded admission, batching, N device workers —

and reports job throughput on the modeled device timeline (jobs per
simulated device-second of makespan), which is deterministic and
directly comparable: the same job set, the same timing models, only the
serving architecture differs.  This is the host-level rerun of the
paper's core claim: keeping every pipeline busy and amortizing fixed
transaction costs moves the bound from per-request latency to sustained
throughput.

It accepts ``faults`` as a :class:`~repro.engine.resilience.FaultPlan`,
a plan dict, or a path to a plan JSON file (the ``--faults PLAN.json``
CLI hook).  The seeded resilience run, `chaos`, is a one-shard preset
of `serve-chaos` (:mod:`repro.serve.bench`).
"""

from __future__ import annotations

import os

from repro.engine.engine import ExecutionEngine
from repro.engine.jobs import GammaJob, Job
from repro.engine.queue import EngineError
from repro.engine.resilience import FaultPlan, RetryPolicy
from repro.harness.experiments import ExperimentResult

__all__ = [
    "make_job_mix",
    "run_serve_bench",
]


def _resolve_plan(faults) -> FaultPlan | None:
    """Accept a FaultPlan, a plan dict, or a path to a plan JSON file."""
    if faults is None or isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, dict):
        return FaultPlan.from_dict(faults)
    if isinstance(faults, (str, os.PathLike)):
        return FaultPlan.from_json(os.fspath(faults))
    raise TypeError(
        f"faults must be a FaultPlan, dict or path, got {type(faults).__name__}"
    )


def make_job_mix(
    n_jobs: int = 64,
    n_samples: int = 2048,
    config: str = "Config1",
    variances: tuple[float, ...] = (1.39, 0.35),
    base_seed: int = 20170529,
) -> list[Job]:
    """A deterministic job mix: ``n_jobs`` gamma draws over the variances.

    Alternating variances produce several batch keys, so the bench
    exercises coalescing (same-key runs merge) and key separation
    (different keys never share a batch).
    """
    return [
        GammaJob(
            config=config,
            variance=variances[i % len(variances)],
            n_samples=n_samples,
            seed=base_seed + i,
        )
        for i in range(n_jobs)
    ]


def run_serve_bench(
    n_jobs: int = 64,
    n_samples: int = 2048,
    n_workers: int = 2,
    max_batch: int = 8,
    policy: str = "fifo",
    queue_depth: int = 64,
    faults=None,
    deadline_s: float | None = None,
    retry: RetryPolicy | None = None,
) -> ExperimentResult:
    """Serial vs engine throughput on the same deterministic job mix.

    With ``faults`` (a :class:`FaultPlan`, plan dict, or plan-JSON
    path) and/or ``deadline_s`` the engine half runs under injected
    faults and per-job deadlines: failed and shed jobs are counted
    instead of raising, and the payload determinism check covers the
    jobs that did complete.
    """
    plan = _resolve_plan(faults)
    engine_jobs = make_job_mix(n_jobs, n_samples)

    with ExecutionEngine(n_workers=1, max_batch=1) as serial_engine:
        serial_results = serial_engine.run(make_job_mix(n_jobs, n_samples))
    serial = serial_engine.stats()

    engine = ExecutionEngine(
        n_workers=n_workers,
        queue_depth=queue_depth,
        max_batch=max_batch,
        policy=policy,
        faults=plan,
        default_deadline_s=deadline_s,
        retry=retry,
    )
    failed: dict[str, int] = {}
    with engine:
        if plan is None and deadline_s is None:
            results = engine.run(engine_jobs)
        else:
            handles = [engine.submit(job) for job in engine_jobs]
            results = []
            for handle in handles:
                try:
                    results.append(handle.result(timeout=120.0))
                except EngineError as exc:
                    kind = type(exc).__name__
                    failed[kind] = failed.get(kind, 0) + 1
    stats = engine.stats()

    # determinism spot-check: same seeds => identical payloads
    import numpy as np

    by_id = {r.job_id: r.payload for r in results}
    for s_result, e_job in zip(serial_results, engine_jobs):
        if e_job.job_id not in by_id:
            continue  # failed/shed under the fault plan
        if not np.array_equal(s_result.payload, by_id[e_job.job_id]):
            raise AssertionError(
                "engine payload diverged from the serial payload "
                f"for seed {e_job.seed}"
            )

    speedup = (
        stats.modeled_throughput_jps / serial.modeled_throughput_jps
        if serial.modeled_throughput_jps
        else float("inf")
    )
    rows = [
        [
            "serial",
            1,
            1,
            serial.jobs_completed,
            round(1e3 * serial.modeled_makespan_s, 2),
            round(serial.modeled_throughput_jps, 1),
            1.0,
        ],
        [
            f"engine ({policy})",
            n_workers,
            max_batch,
            stats.jobs_completed,
            round(1e3 * stats.modeled_makespan_s, 2),
            round(stats.modeled_throughput_jps, 1),
            round(speedup, 2),
        ],
    ]
    return ExperimentResult(
        experiment=(
            f"serve-bench: {n_jobs} jobs x {n_samples} gammas, "
            f"{n_workers} devices, batch<= {max_batch}"
        ),
        headers=[
            "mode", "devices", "max batch", "jobs",
            "modeled makespan [ms]", "jobs/s (modeled)", "speedup",
        ],
        rows=rows,
        series={
            "engine": {
                "batches": stats.batches,
                "mean_batch_occupancy": stats.mean_batch_occupancy,
                "queue_high_water": stats.queue.high_water,
                "submit_stalls": stats.queue.write_stalls,
            },
            "engine_stats": stats.to_dict(),
            "serial_stats": serial.to_dict(),
            "metrics": engine.metrics.snapshot(),
            "failed": dict(failed),
        },
        notes=stats.render(),
    )
