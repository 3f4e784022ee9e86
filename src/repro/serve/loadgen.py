"""Load generation + virtual-time tier simulation for the serving layer.

Two halves, sharing one trace format:

* :func:`generate_trace` draws a **replayable traffic trace** — Pareto
  (heavy-tailed) inter-arrivals and job sizes, Zipf-distributed tenants
  over a million-user population — entirely from one seed.  The same
  seed always produces byte-identical traces, and a trace round-trips
  through JSON, so a latency regression seen in CI can be replayed
  locally from the committed spec.
* :func:`simulate_tier` runs a trace through a **virtual-time model**
  of the sharded tier: the *same* policy objects the live tier uses
  (the consistent-hash ring for shard assignment, the token-bucket
  admission contract, the :class:`~repro.engine.shard.ShardCore`
  scheduler with its batch rule, retry policy and circuit breakers,
  the :func:`~repro.engine.pool.batch_service_seconds` batch cost and
  the :class:`~repro.engine.resilience.FaultPlan` hooks), each shard
  an event loop over that core, all clocked by the trace's arrival
  timestamps instead of the host.
  Latency percentiles, shed rates and throughput out of the
  simulator are pure functions of ``(trace, tier spec)`` — the property
  that lets ``BENCH_serving.json`` be byte-reproducible, exactly like
  the engine's modeled-device-timeline throughput is immune to host
  scheduling noise.

:func:`replay_trace` is the wall-clock counterpart: it plays a trace
through a live :class:`~repro.serve.gateway.AdmissionGateway` (asyncio,
real threads, optionally time-compressed), which is what the smoke
tests and the chaos run use.
"""

from __future__ import annotations

import asyncio
import functools
import json
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.engine.jobs import Batch, GammaJob
from repro.engine.pool import DeviceWorker, batch_service_seconds
from repro.engine.queue import JobQueueFull
from repro.engine.resilience import (
    CircuitBreaker,
    FaultPlan,
    InjectedFault,
    JobDeadlineExceeded,
)
from repro.engine.shard import Attempt, ShardCore
from repro.obs import get_request_log
from repro.obs.percentiles import summarize
from repro.obs.rtrace import derive_trace_id
from repro.serve.gateway import TenantPolicy, TenantThrottled, TokenBucket
from repro.serve.sharding import ShardRing

__all__ = [
    "WorkloadSpec",
    "TraceEvent",
    "TierSpec",
    "generate_trace",
    "trace_to_json",
    "trace_from_json",
    "job_from_event",
    "simulate_tier",
    "offered_load_sweep",
    "replay_trace",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that determines a traffic trace (all of it seeded).

    ``rate_jps`` is the *offered* load; arrivals are Pareto-I gaps with
    tail index ``arrival_alpha`` whose mean hits that rate, so traffic
    is bursty the way real tenant traffic is, not Poisson-smooth.
    Sizes are Pareto too (``size_alpha``), floored at ``size_min`` and
    capped at ``size_cap`` samples.  Tenants are Zipf(``zipf_s``) over
    ``n_users`` — a million-user population where a handful of heavy
    hitters dominate, which is what makes per-tenant token buckets do
    real work.
    """

    seed: int = 20170529
    n_jobs: int = 2000
    rate_jps: float = 400.0
    arrival_alpha: float = 2.2
    #: sizes are virtual-clock friendly defaults (the simulator never
    #: computes payloads); wall-clock replays pass smaller sizes so
    #: job.compute() stays cheap
    size_min: int = 131072
    size_alpha: float = 1.8
    size_cap: int = 2_097_152
    n_users: int = 1_000_000
    zipf_s: float = 1.3
    #: config and variance are drawn independently, so the trace carries
    #: ``len(configs) * len(variances)`` distinct batch keys — enough
    #: key diversity that a consistent-hash ring spreads real load over
    #: every shard (two lonely keys would strand half a 4-shard tier)
    configs: tuple = ("Config1", "Config2", "Config3", "Config4")
    variances: tuple = (0.35, 0.8, 1.39, 2.3, 4.45, 6.0)
    deadline_s: float | None = None
    deadline_fraction: float = 0.0  # share of jobs carrying the deadline

    def scaled(self, load_multiplier: float) -> "WorkloadSpec":
        """Same workload shape at a different offered load (same seed)."""
        return WorkloadSpec(
            **{
                **asdict(self),
                "rate_jps": self.rate_jps * load_multiplier,
            }
        )


@dataclass(frozen=True)
class TraceEvent:
    """One arrival: who, when, what."""

    index: int
    t: float  # arrival time, seconds from trace start
    tenant: int
    config: str
    variance: float
    n_samples: int
    seed: int
    deadline_s: float | None = None

    def batch_key(self):
        """Mirror of :meth:`GammaJob.batch_key` — used for routing."""
        return ("gamma", self.config, self.variance)

    def expired(self, now: float) -> bool:
        """True once the deadline has passed — :meth:`Job.expired` on
        the virtual clock."""
        return self.deadline_s is not None and now >= self.t + self.deadline_s


def generate_trace(spec: WorkloadSpec) -> list[TraceEvent]:
    """Draw the full trace from ``spec.seed`` (deterministic).

    Inter-arrival gaps: Pareto-I with scale ``xm = (a-1)/(a*rate)`` so
    the mean gap is exactly ``1/rate``.  Job seeds are derived per
    event (``spec.seed * 1_000_003 + index``), so replaying any single
    job reproduces its exact payload.
    """
    rng = np.random.default_rng(spec.seed)
    a = spec.arrival_alpha
    if a <= 1.0:
        raise ValueError("arrival_alpha must be > 1 for a finite mean")
    xm = (a - 1.0) / (a * spec.rate_jps)
    # rng.pareto draws Lomax; +1 shifts to Pareto-I with scale 1
    gaps = xm * (1.0 + rng.pareto(a, size=spec.n_jobs))
    arrivals = np.cumsum(gaps)
    sizes = np.minimum(
        spec.size_cap,
        (spec.size_min * (1.0 + rng.pareto(spec.size_alpha, size=spec.n_jobs)))
        .astype(np.int64),
    )
    tenants = np.minimum(rng.zipf(spec.zipf_s, size=spec.n_jobs), spec.n_users)
    kinds = rng.integers(0, len(spec.configs), size=spec.n_jobs)
    sectors = rng.integers(0, len(spec.variances), size=spec.n_jobs)
    with_deadline = (
        rng.random(size=spec.n_jobs) < spec.deadline_fraction
        if spec.deadline_s is not None
        else np.zeros(spec.n_jobs, dtype=bool)
    )
    events = []
    for i in range(spec.n_jobs):
        events.append(
            TraceEvent(
                index=i,
                t=float(arrivals[i]),
                tenant=int(tenants[i]),
                config=spec.configs[int(kinds[i])],
                variance=float(spec.variances[int(sectors[i])]),
                n_samples=int(sizes[i]),
                seed=spec.seed * 1_000_003 + i,
                deadline_s=spec.deadline_s if with_deadline[i] else None,
            )
        )
    return events


def trace_to_json(events: list[TraceEvent]) -> str:
    return json.dumps([asdict(e) for e in events])


def trace_from_json(text: str) -> list[TraceEvent]:
    return [TraceEvent(**item) for item in json.loads(text)]


def job_from_event(event: TraceEvent) -> GammaJob:
    """Materialize the engine job a trace event describes."""
    return GammaJob(
        seed=event.seed,
        deadline_s=event.deadline_s,
        config=event.config,
        variance=event.variance,
        n_samples=event.n_samples,
    )


# -- virtual-time tier simulation --------------------------------------------------


@dataclass(frozen=True)
class TierSpec:
    """The sharded tier as the simulator (and the live tier) sees it."""

    n_shards: int = 4
    workers_per_shard: int = 2
    queue_depth: int = 64
    max_batch: int = 8
    tenant_policy: TenantPolicy = field(default_factory=TenantPolicy)
    ring_replicas: int = 64
    ring_seed: int = 0
    #: extra ring hops a queue-full shard may spill to (0 = primary
    #: only, the pre-spillover behaviour); mirrors
    #: :class:`~repro.serve.sharding.ShardedEngine`'s ``spill``
    spill: int = 0


class _Shard:
    """One virtual shard: an event loop over the live tier's scheduler.

    The :class:`~repro.engine.shard.ShardCore` decides as it does for a
    live engine — batch formation at pickup, the worker idle longest,
    retry readiness and avoid sets, breaker fences, deadline sheds —
    and this loop runs its attempts in start order on the virtual
    clock.  Each attempt runs through the live worker's fault hooks
    (:meth:`FaultPlan.before_batch` and :meth:`FaultPlan.job_fault`)
    and holds its worker for what a live worker would:
    :func:`~repro.engine.pool.batch_service_seconds` on the device and
    model of ``pricing``, a :class:`~repro.engine.pool.DeviceWorker`
    built as the live tier builds its workers, plus any seconds a
    ``latency`` or ``wedge`` rule waits.  Failed jobs retry after the
    live :class:`~repro.engine.resilience.RetryPolicy` backoff, and each
    worker has a live :class:`CircuitBreaker` on the virtual clock.

    ``ctxs`` maps trace-event index → :class:`repro.obs.TraceContext`
    (empty when request tracing is off): every lifecycle point —
    enqueue, queue wait, batch formation, execute attempts, retries,
    completion, deadline shed — emits its span on the *virtual* clock,
    so a seeded run exports a byte-identical span log.
    """

    def __init__(
        self,
        spec: TierSpec,
        pricing: DeviceWorker,
        index: int,
        faults: FaultPlan,
        ctxs: dict,
    ):
        self.spec = spec
        self.pricing = pricing
        self.name = f"shard{index}"
        self.faults = faults
        self.ctxs = ctxs
        #: the virtual clock this shard's breakers read
        self.now = 0.0
        names = [f"s{index}w{j}" for j in range(spec.workers_per_shard)]
        self.core = ShardCore(
            names,
            [CircuitBreaker(clock=lambda: self.now) for _ in names],
            spec.max_batch,
            arrival=lambda event: event.t,
        )
        self.batches_done = [0] * len(names)
        self.waiting: deque = deque()
        self.completed: list[tuple[TraceEvent, float, float]] = []
        self.deadline_shed: list[TraceEvent] = []
        self.failed: list[TraceEvent] = []
        self.busy_s = 0.0
        self.batches = 0
        self.retries = 0
        self._batch_seq = 0

    def offer(self, event: TraceEvent) -> bool:
        """Admit at the event's arrival time; False = queue-full refusal.

        The caller (tier loop) owns shed accounting — a refusal here may
        still spill to the next shard on the ring.
        """
        self.drain(until=event.t)
        if len(self.waiting) >= self.spec.queue_depth:
            return False
        self.waiting.append(event)
        ctx = self.ctxs.get(event.index)
        if ctx is not None:
            ctx.emit(
                "queue", "enqueue", t=event.t, shard=self.name,
                occupancy=len(self.waiting),
            )
        return True

    def drain(self, until: float = float("inf")) -> None:
        """Run every attempt that starts strictly before ``until``.

        Later attempts wait: arrivals up to ``until`` may still join
        their batch, which forms when a worker takes it.
        """
        while True:
            pick = self.core.next_start(self.waiting)
            if pick is None or pick.start >= until:
                return
            start = self.now = pick.start
            attempt = self.core.begin(pick, start, self.waiting)
            for event in attempt.expired:
                self._shed_deadline(event, start)
            if not attempt.jobs:
                continue  # the worker stays free
            batch_id = attempt.batch_id
            if batch_id is None:
                self._batch_seq += 1
                batch_id = self._batch_seq
                self.batches += 1
                for e in attempt.jobs:
                    ctx = self.ctxs.get(e.index)
                    if ctx is not None:
                        ctx.emit(
                            "queue", "wait", t=e.t, dur=start - e.t,
                            shard=self.name,
                        )
                        ctx.emit(
                            "batch", "batch", t=start,
                            batch_id=batch_id, size=len(attempt.jobs),
                        )
            self._run(attempt, batch_id)

    def _run(self, attempt: Attempt, batch_id: int) -> None:
        """Run one attempt as a live worker runs it.

        A failed or killed attempt fails before compute and bills
        nothing; a job fault fails only its job, and the readback still
        covers the whole batch.  A failed job retries after the live
        backoff unless its deadline passed or its attempts ran out.
        """
        index, start, events = attempt.worker, attempt.start, attempt.jobs
        name = self.core.names[index]
        batch = Batch(
            jobs=[job_from_event(e) for e in events], attempt=attempt.attempt
        )
        held: list[float] = []
        try:
            self.faults.before_batch(
                name, batch, self.batches_done[index], wait=held.append
            )
        except InjectedFault as exc:
            worker_fault = True
            errors: list = [exc] * batch.size
            billed = 0.0
        else:
            worker_fault = False
            errors = [
                self.faults.job_fault(name, job, wait=held.append)
                for job in batch.jobs
            ]
            kernel_s, read_s = batch_service_seconds(
                self.pricing.device,
                (
                    0.0 if error else job.device_seconds(self.pricing.model)
                    for job, error in zip(batch.jobs, errors)
                ),
                batch.result_bytes(),
            )
            billed = kernel_s + read_s
            self.batches_done[index] += 1
        finish = start + sum(held) + billed
        self.busy_s += billed
        self.now = finish
        retry_events = []
        for e, error in zip(events, errors):
            ctx = self.ctxs.get(e.index)
            if ctx is not None:
                ctx.emit(
                    "worker", "execute", t=start, dur=finish - start,
                    status="error" if error else "ok",
                    worker=name, batch_id=batch_id, attempt=attempt.attempt,
                )
            if error is None:
                self.completed.append((e, start, finish))
                if ctx is not None:
                    ctx.emit(
                        "request", "complete", t=finish,
                        terminal=True, latency_s=finish - e.t,
                    )
            elif e.expired(finish):
                self._shed_deadline(e, finish)
            elif attempt.attempt >= self.core.retry_policy.max_attempts:
                self.failed.append(e)
                if ctx is not None:
                    ctx.emit(
                        "request", "failed", t=finish,
                        status="error", terminal=True,
                        latency_s=finish - e.t, attempts=attempt.attempt,
                    )
            else:
                retry_events.append(e)
        if retry_events:
            self._batch_seq += 1
            self.retries += len(retry_events)
        delay = self.core.finish(
            index, finish, worker_fault, retry_events, attempt.attempt,
            attempt.avoid, self._batch_seq,
        )
        for e in retry_events:
            ctx = self.ctxs.get(e.index)
            if ctx is not None:
                ctx.emit(
                    "retry", "retry_scheduled", t=finish,
                    attempt=attempt.attempt + 1, delay_s=delay,
                    batch_id=self._batch_seq,
                )

    def _shed_deadline(self, event: TraceEvent, t: float) -> None:
        self.deadline_shed.append(event)
        ctx = self.ctxs.get(event.index)
        if ctx is not None:
            ctx.emit(
                "request", "deadline", t=t, status="shed",
                terminal=True, latency_s=t - event.t, shard=self.name,
            )


#: slowest-K size for the always-computed p99 exemplar rows
_EXEMPLAR_K = 8


def simulate_tier(
    trace: list[TraceEvent],
    tier: TierSpec | None = None,
    faults: FaultPlan | None = None,
    rlog=None,
    trace_salt: str = "",
) -> dict:
    """Deterministic virtual-time run of ``trace`` through a tier.

    ``faults`` is the live tier's :class:`FaultPlan`; the run works on
    a fresh copy of it, so kill state and ``injected`` counts never
    reach the caller's plan.  Retries and breakers use the live
    defaults (:class:`~repro.engine.resilience.RetryPolicy`,
    :class:`CircuitBreaker`).

    The returned report is a pure function of its inputs — same trace,
    same spec, same fault plan, byte-identical dict — and carries
    everything the serving benchmark records per offered-load step:
    completion/shed/failure counts by cause, end-to-end latency summary
    (mean/p50/p95/p99/max), goodput on the virtual clock, per-shard
    assignment counts, and ``p99_exemplars`` — the slowest-K completed
    requests with their trace ids, so a regression in a committed
    baseline's p99 names the exact chains to replay.

    ``rlog`` (defaulting to the globally installed request log, see
    :func:`repro.obs.set_request_log`) turns on full span emission:
    every request's gateway→shard→queue→batch→worker chain lands in the
    log on the virtual clock.  ``trace_salt`` disambiguates trace ids
    when several runs (a sweep's steps) share one log.
    """
    tier = tier or TierSpec()
    if rlog is None:
        rlog = get_request_log()
    ring = ShardRing(
        [f"shard{i}" for i in range(tier.n_shards)],
        replicas=tier.ring_replicas,
        seed=tier.ring_seed,
    )
    ctxs: dict = {}
    pricing = DeviceWorker("virtual")
    # a fresh copy: kill state and injected counts stay in this run
    plan = (
        FaultPlan(faults.rules, faults.seed) if faults is not None
        else FaultPlan()
    )
    shards = {}
    for i in range(tier.n_shards):
        shard = _Shard(tier, pricing, i, plan, ctxs)
        shards[shard.name] = shard
    buckets: dict[int, TokenBucket] = {}
    throttled: list[TraceEvent] = []
    queue_shed: list[TraceEvent] = []
    spilled = 0
    assignment: list[str] = []
    for event in sorted(trace, key=lambda e: (e.t, e.index)):
        prefs = ring.preference(event.batch_key())
        candidates = prefs[: 1 + tier.spill]
        assignment.append(candidates[0])
        ctx = None
        if rlog is not None:
            ctx = rlog.mint(
                (trace_salt, event.index),
                tenant=event.tenant,
                batch_key=event.batch_key(),
                deadline_s=event.deadline_s,
            )
            ctxs[event.index] = ctx
            ctx.emit("gateway", "admit", t=event.t, tenant=event.tenant)
        bucket = buckets.get(event.tenant)
        if bucket is None:
            bucket = TokenBucket(
                rate=tier.tenant_policy.rate, burst=tier.tenant_policy.burst
            )
            buckets[event.tenant] = bucket
        if not bucket.try_acquire(now=event.t):
            throttled.append(event)
            if ctx is not None:
                ctx.emit(
                    "gateway", "throttled", t=event.t, status="shed",
                    terminal=True, tenant=event.tenant,
                )
            continue
        if ctx is not None:
            ctx.emit(
                "shard", "route", t=event.t,
                shard=candidates[0], candidates=list(candidates),
            )
        admitted = False
        for i, name in enumerate(candidates):
            if shards[name].offer(event):
                admitted = True
                if i > 0:
                    spilled += 1
                break
            if i + 1 < len(candidates) and ctx is not None:
                ctx.emit(
                    "shard", "spill", t=event.t, status="shed",
                    from_shard=name, to_shard=candidates[i + 1],
                )
        if not admitted:
            queue_shed.append(event)
            if ctx is not None:
                ctx.emit(
                    "shard", "queue_full", t=event.t, status="shed",
                    terminal=True,
                )
    for shard in shards.values():
        shard.drain()
    completed = [c for s in shards.values() for c in s.completed]
    latencies = [finish - e.t for e, _, finish in completed]
    makespan = max((finish for _, _, finish in completed), default=0.0)
    n_queue_shed = len(queue_shed)
    n_deadline_shed = sum(len(s.deadline_shed) for s in shards.values())
    n_failed = sum(len(s.failed) for s in shards.values())
    n_retries = sum(s.retries for s in shards.values())
    n_batches = sum(s.batches for s in shards.values())
    offered = len(trace)
    shed_total = len(throttled) + n_queue_shed + n_deadline_shed
    # always-on tail exemplars: trace ids are derivable without a log,
    # so even an untraced benchmark run pins *which* requests were the
    # p99 — the ids match a traced re-run of the same seed exactly
    id_seed = rlog.seed if rlog is not None else 0
    slowest = sorted(
        (
            (finish - e.t, e.index, name)
            for name, s in sorted(shards.items())
            for e, _start, finish in s.completed
        ),
        reverse=True,
    )[:_EXEMPLAR_K]
    p99_exemplars = [
        {
            "trace_id": derive_trace_id(id_seed, (trace_salt, index)),
            "index": index,
            "latency_s": latency,
            "shard": name,
        }
        for latency, index, name in slowest
    ]
    report = {
        "offered_jobs": offered,
        "completed": len(completed),
        "shed_total": shed_total,
        "shed_throttled": len(throttled),
        "shed_queue_full": n_queue_shed,
        "shed_deadline": n_deadline_shed,
        "shed_rate": shed_total / offered if offered else 0.0,
        "failed": n_failed,
        "retries": n_retries,
        "spilled": spilled,
        "latency_s": summarize(latencies),
        "virtual_makespan_s": makespan,
        "throughput_jps": len(completed) / makespan if makespan else 0.0,
        "batches": n_batches,
        "mean_batch_occupancy": (
            len(completed) / n_batches if n_batches else 0.0
        ),
        "device_busy_s": sum(s.busy_s for s in shards.values()),
        "per_shard_completed": {
            name: len(s.completed) for name, s in sorted(shards.items())
        },
        "p99_exemplars": p99_exemplars,
        "assignment": assignment,
    }
    if rlog is not None:
        report["rtrace"] = rlog.snapshot()
    return report


def offered_load_sweep(
    spec: WorkloadSpec,
    multipliers: list[float],
    tier: TierSpec | None = None,
    faults: FaultPlan | None = None,
) -> list[dict]:
    """One :func:`simulate_tier` step per offered-load multiplier.

    Each step regenerates the trace from the *same* seed at the scaled
    rate — the workload shape (sizes, tenants, burstiness) stays fixed
    while pressure rises, so the latency/shed trajectory is the knee of
    this tier, not sampling noise.  Steps salt their trace ids with the
    multiplier so a sweep sharing one request log never collides.
    """
    steps = []
    for m in multipliers:
        scaled = spec.scaled(m)
        report = simulate_tier(
            generate_trace(scaled), tier, faults=faults, trace_salt=f"m{m}"
        )
        report.pop("assignment")  # bulky, per-step records don't need it
        steps.append(
            {"load_multiplier": m, "offered_jps": scaled.rate_jps, **report}
        )
    return steps


# -- wall-clock replay (live gateway + engines) ------------------------------------


def replay_trace(
    gateway,
    trace: list[TraceEvent],
    speedup: float = 1.0,
    max_wait_s: float = 60.0,
) -> dict:
    """Play a trace against a live gateway on the wall clock.

    Arrival timestamps are compressed by ``speedup`` (100 plays a
    100-second trace in about a second).  Each admitted job's outcome
    is counted, and its latency stamped, by a done-callback when its
    future resolves, so an early finisher is timed when it finishes;
    only still-unresolved futures are held.  After the last send the
    replay waits up to ``max_wait_s`` for them and reports the rest as
    ``unresolved``.  Returns outcome counts — wall-clock latencies are
    *observed* here (reported for smoke-test sanity), not asserted on:
    determinism lives in the virtual-time simulator.
    """

    async def _run() -> dict:
        loop = asyncio.get_running_loop()
        start = loop.time()
        outcomes = {
            "completed": 0,
            "throttled": 0,
            "queue_shed": 0,
            "deadline_shed": 0,
            "failed": 0,
        }
        latencies: list[float] = []
        pending: set = set()

        def _resolved(due: float, future) -> None:
            pending.discard(future)
            if future.cancelled():
                outcomes["failed"] += 1
                return
            error = future.exception()
            if error is None:
                outcomes["completed"] += 1
                latencies.append(loop.time() - due)
            elif isinstance(error, JobDeadlineExceeded):
                outcomes["deadline_shed"] += 1
            else:
                outcomes["failed"] += 1

        async def _one(event: TraceEvent) -> None:
            due = start + event.t / speedup
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            job = job_from_event(event)
            try:
                future = await gateway.submit(event.tenant, job)
            except TenantThrottled:
                outcomes["throttled"] += 1
                return
            except JobDeadlineExceeded:
                outcomes["deadline_shed"] += 1
                return
            except JobQueueFull:
                outcomes["queue_shed"] += 1
                return
            pending.add(future)
            future.add_done_callback(functools.partial(_resolved, due))

        await asyncio.gather(*(_one(e) for e in trace))
        if pending:
            await asyncio.wait(pending, timeout=max_wait_s)
        outcomes["latency_s"] = summarize(latencies)
        outcomes["unresolved"] = len(pending)
        return outcomes

    return asyncio.run(_run())
