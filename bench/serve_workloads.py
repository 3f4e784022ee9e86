"""Serving workloads: an open loop through the live sharded tier.

One asyncio thread sends the requests of a seeded Pareto/Zipf trace
(:func:`repro.serve.generate_trace`) to an
:class:`~repro.serve.AdmissionGateway` over a running
:class:`~repro.serve.ShardedEngine`, each at its due time whether or
not earlier requests finished.  A request's latency runs from its due
time to the moment its asyncio future resolves, stamped by a
done-callback on the future, so a request that finishes early is timed
when it finishes and a late sender shows up as latency.
(``replay_trace`` awaits its futures one by one after the last send and
stamps each when the loop reaches it; the benchmark does not use it.)

Correctness: every payload must be float32 with ``n_samples`` values,
and a seeded 1% sample of requests is recomputed with
``job_from_event(event).compute()`` after the timed window and
compared byte for byte.

A traced run sends the first half of the trace untraced and the second
half through wrappers on the gateway, ring, shard engines, queues,
workers, jobs and each worker's OpenCL session, recording one span per
hop per request (see :class:`_Probe`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import selectors
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

from repro.engine.jobs import GammaJob
from repro.engine.queue import JobQueueFull
from repro.engine.resilience import JobDeadlineExceeded
from repro.obs import ChromeTracer, percentile
from repro.serve import (
    AdmissionGateway,
    ShardedEngine,
    TenantPolicy,
    TenantThrottled,
    WorkloadSpec,
    generate_trace,
    job_from_event,
)

import metrics
from layer_timer import Overhead, calibrate

__all__ = ["SPECS", "ServeSpec", "open_loop", "run_serve", "sampled_indices"]


@dataclass(frozen=True)
class ServeSpec:
    """Traffic of one serving workload."""

    size_min: int  # samples per job: Pareto floor ...
    size_cap: int  # ... and cap
    rate_jps: float  # offered requests per second
    limit_s: float  # latency limit for goodput
    deadline_s: float  # deadline of the 25% of jobs that carry one


SPECS = {
    # ~0.4 ms of compute per job, so the per-request fixed path
    # dominates; a fifth of the tier's ~1300 jobs/s capacity keeps it
    # unsaturated when a co-tenant halves host speed.  The limit is the
    # deadline some jobs carry; the tier meets it with margin, so
    # goodput moves only when latency grows several-fold
    "serve-small": ServeSpec(2048, 16384, 250.0, 0.050, 0.050),
    # compute and per-batch result retention dominate.  About half the
    # tier's 140-200 jobs/s capacity at these sizes: under overload the
    # completions, and with them the retained memory, follow host speed.
    # A 50 ms deadline would shed a share of these 5-40 ms jobs that
    # varies with host speed, so theirs is 1 s
    "serve-large": ServeSpec(32768, 131072, 70.0, 5.0, 1.0),
}

#: 2 shards x 2 workers: 8 worker threads on 2 cores would measure the
#: host scheduler, not the tier
TIER = {"n_shards": 2, "n_workers": 2, "queue_depth": 64, "max_batch": 8, "spill": 1}
#: generous enough that no tenant of the Zipf mix is throttled
TENANT_POLICY = TenantPolicy(rate=400.0, burst=800.0)
DEADLINE_FRACTION = 0.25
#: the first request is due this long after the loop starts
LEAD_S = 0.05
#: how long the loop waits for outstanding futures after the last send
RESOLVE_TIMEOUT_S = 60.0


class Request:
    """One sent request and what became of it (loop-clock seconds)."""

    __slots__ = ("event", "due", "sent", "done", "outcome", "payload", "hops")

    def __init__(self, event, due: float):
        self.event = event
        self.due = due
        self.sent = None
        self.done = None
        #: ok | wrong | error | deadline | throttled | queue_full
        self.outcome = None
        self.payload = None  # kept for sampled requests only
        self.hops: dict = {}

    @property
    def latency(self) -> float:
        return self.done - self.due


def payload_ok(payload, event) -> bool:
    return (
        isinstance(payload, np.ndarray)
        and payload.dtype == np.float32
        and payload.shape == (event.n_samples,)
    )


def _stamp(req: Request, loop, sampled, future) -> None:
    req.done = loop.time()
    if future.cancelled():
        req.outcome = "error"
        return
    error = future.exception()
    if error is None:
        payload = future.result().payload
        req.outcome = "ok" if payload_ok(payload, req.event) else "wrong"
        if req.event.index in sampled:
            req.payload = payload
    elif isinstance(error, JobDeadlineExceeded):
        req.outcome = "deadline"
    else:
        req.outcome = "error"


async def open_loop(gateway, events, make_job, sampled=frozenset()) -> list[Request]:
    """Send ``events`` on their schedule; returns one record per event.

    The first event is due :data:`LEAD_S` after the call; every later
    one keeps its offset from the first.  ``make_job(event, request)``
    builds the job to submit.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + LEAD_S - events[0].t
    requests, pending = [], []
    for event in events:
        req = Request(event, start + event.t)
        requests.append(req)
        delay = req.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        req.sent = loop.time()
        try:
            future = await gateway.submit(event.tenant, make_job(event, req))
        except TenantThrottled:  # a JobQueueFull: test it first
            req.outcome = "throttled"
        except JobQueueFull:
            req.outcome = "queue_full"
        except JobDeadlineExceeded:
            req.outcome = "deadline"
        else:
            future.add_done_callback(functools.partial(_stamp, req, loop, sampled))
            pending.append(future)
    if pending:
        await asyncio.wait(pending, timeout=RESOLVE_TIMEOUT_S)
    return requests


def _run_loop(coro):
    # select() sleeps with microsecond resolution; epoll rounds every
    # timeout up to a whole millisecond, which would make the sender
    # late by up to 1 ms per request
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def sampled_indices(n_events: int, seed: int) -> frozenset:
    """The seeded 1% of trace indices whose payloads are recomputed."""
    rng = np.random.default_rng(seed)
    return frozenset(
        rng.choice(n_events, size=max(1, n_events // 100), replace=False).tolist()
    )


def _paced(events, rate_jps: float):
    """The trace with arrival times scaled to offer exactly ``rate_jps``.

    The span of a trace's Pareto gaps varies by several percent from
    seed to seed; the scaling keeps the offered rate, and with it
    goodput, from varying with the seed.
    """
    scale = len(events) / rate_jps / events[-1].t
    return [dataclasses.replace(e, t=e.t * scale) for e in events]


def _plain_job(event, req):
    return job_from_event(event)


def _warm(tier, spec: WorkloadSpec) -> None:
    """One job per batch key through the tier: fills the per-key
    rejection-rate cache and starts every code path before timing."""
    handles = [
        tier.submit(GammaJob(seed=i, config=c, variance=v, n_samples=spec.size_min))
        for i, (c, v) in enumerate(
            (c, v) for c in spec.configs for v in spec.variances
        )
    ]
    for handle in handles:
        handle.result(timeout=RESOLVE_TIMEOUT_S)


def _shard_state(tier) -> tuple[dict, int]:
    completed = {name: s.jobs_completed for name, s in tier.stats().items()}
    return completed, tier.metrics.snapshot().get("tier.jobs_spilled", 0)


def run_serve(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    setup_only: bool = False,
    out_dir: Path | None = None,
    make_job=_plain_job,
) -> dict:
    """Run one serving workload; :mod:`child` describes the result.

    ``make_job(event, request)`` builds each untraced job (tests inject
    wrong payloads through it).
    """
    spec = SPECS[name]
    workload = WorkloadSpec(
        seed=seed,
        n_jobs=max(4, round(spec.rate_jps * seconds)),
        rate_jps=spec.rate_jps,
        size_min=spec.size_min,
        size_cap=spec.size_cap,
        deadline_s=spec.deadline_s,
        deadline_fraction=DEADLINE_FRACTION,
    )
    events = _paced(generate_trace(workload), spec.rate_jps)
    sampled = sampled_indices(len(events), seed)
    tier = ShardedEngine(**TIER).start()
    try:
        gateway = AdmissionGateway(tier, default_policy=TENANT_POLICY)
        _warm(tier, workload)
        overhead = calibrate() if trace else None
        rss_after_warmup = metrics.rss_mb()
        completed0, spilled0 = _shard_state(tier)
        setup_done_at = time.monotonic()
        if setup_only:
            return {"setup_done_at": setup_done_at}

        half = len(events) // 2 if trace else len(events)
        cpu0 = time.process_time()
        plain = _run_loop(open_loop(gateway, events[:half], make_job, sampled))
        tier.drain(timeout=RESOLVE_TIMEOUT_S)
        cpu_plain = time.process_time() - cpu0
        traced, probe = [], None
        if trace:
            probe = _Probe(tier, gateway, overhead)
            cpu0 = time.process_time()
            traced = _run_loop(open_loop(gateway, events[half:], probe.make_job, sampled))
            tier.drain(timeout=RESOLVE_TIMEOUT_S)
            cpu_traced = time.process_time() - cpu0
        peak = metrics.peak_rss_mb()
        completed1, spilled1 = _shard_state(tier)
        retained_bytes, retained_objects = _retained(tier)
    finally:
        tier.shutdown()

    requests = plain + traced
    failures = [
        f"request {r.event.index}: {r.outcome or 'unresolved'}"
        for r in requests
        if r.outcome in (None, "wrong", "error")
    ]
    for r in requests:
        if r.payload is not None and (
            job_from_event(r.event).compute().tobytes() != r.payload.tobytes()
        ):
            failures.append(f"request {r.event.index}: recomputed payload differs")
    lags = [r.sent - r.due for r in requests]
    lag_p99 = percentile(lags, 0.99)
    report = _summary(name, spec, plain, lag_p99, failures)

    if trace:
        per_shard = [completed1[k] - completed0[k] for k in completed1]
        values = {
            "mem.rss_growth_mb": metrics.rss_mb() - rss_after_warmup,
            "opencl.retained_mb": retained_bytes / 2**20,
            "opencl.retained_objects": retained_objects,
            "serve.ring.spilled": spilled1 - spilled0,
            "serve.ring.shard_skew": max(per_shard) / max(1, min(per_shard)),
            "loadgen.lag_p99_ms": 1e3 * lag_p99,
            # host CPU per completion: the tracing cost, whatever the load
            "trace.overhead_frac": (cpu_traced / _completed(traced))
            / (cpu_plain / _completed(plain))
            - 1.0,
        }
        layer_values, lines, sum_ok = probe.layer_metrics(traced, name, out_dir)
        values.update(layer_values)
        report += lines
        if not sum_ok:
            failures.append("per-request hops do not sum to latency")
    else:
        ok = [r.latency for r in plain if r.outcome == "ok"]
        ok_done = [r.done for r in plain if r.outcome == "ok"]
        on_time = sum(1 for x in ok if x <= spec.limit_s)
        values = {
            "peak_rss_mb": peak,
            "ops_per_s": on_time
            / (max(ok_done, default=plain[-1].due) - plain[0].due),
        }
    report += [f"CHECK FAILED: {f}" for f in failures[:20]]
    return {
        "setup_done_at": setup_done_at,
        "correct": not failures,
        "attempted": len(requests) + len(sampled),
        "failed": len(failures),
        "metrics": values,
        "report": report,
    }


def _completed(requests) -> int:
    return max(1, sum(1 for r in requests if r.outcome == "ok"))


def _summary(name, spec, requests, lag_p99, failures) -> list[str]:
    sent = len(requests)
    outcomes = {}
    for r in requests:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    ok = [r.latency for r in requests if r.outcome == "ok"]
    on_time = sum(1 for x in ok if x <= spec.limit_s)
    shed = sum(outcomes.get(k, 0) for k in ("throttled", "queue_full", "deadline"))
    lines = [
        f"{name}: {sent} sent at {spec.rate_jps:g}/s, {len(ok)} completed, "
        f"{on_time} within {1e3 * spec.limit_s:g} ms",
        "outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items(), key=str)),
        f"slo_attainment {on_time / sent:.4f}, shed_rate {shed / sent:.4f}, "
        f"error_rate {len(failures) / sent:.4f} (n={sent})",
        f"latency ms over {len(ok)} completions: p50 {1e3 * percentile(ok, 0.5):.3f} "
        f"p90 {1e3 * percentile(ok, 0.9):.3f} p99 {1e3 * percentile(ok, 0.99):.3f} "
        "(reported, not gated: see bench/README.md)",
        f"generator lag p99 {1e3 * lag_p99:.3f} ms",
    ]
    if lag_p99 > 0.1 * spec.limit_s:
        lines.append(
            "INVALID: the load generator fell behind by more than 10% of "
            "the latency limit"
        )
    return lines


def _retained(tier) -> tuple[int, int]:
    """Bytes and objects the workers' OpenCL sessions still hold."""
    nbytes = objects = 0
    for shard in tier.shards.values():
        for worker in shard.pool.workers:
            buffers = worker.session.context.buffers
            events = worker.session.queue.events
            nbytes += sum(b.size_bytes for b in buffers)
            nbytes += sum(
                e.info["data"].nbytes for e in events if "data" in e.info
            )
            objects += len(buffers) + len(events)
    return nbytes, objects


def _accumulate(hops: dict, hop: str, ns: int) -> None:
    hops[hop] = hops.get(hop, 0) + ns
    hops[hop + "_calls"] = hops.get(hop + "_calls", 0) + 1


class _Batch(NamedTuple):
    ns: int  # host ns inside DeviceWorker.execute
    size: int
    opencl_ns: int  # of which in the worker's OpenCL session calls


class _Probe:
    """Wraps the tier's public methods and records per-request hops.

    Asyncio-thread hops (admit, ring, engine submit, queue put) nest in
    that order; worker-thread hops (execute, compute, device model,
    OpenCL timeline) are keyed by job id.  Durations are ns from
    ``perf_counter_ns``; instants are ``time.monotonic()`` seconds, the
    clock of ``JobHandle`` and of the event loop.
    """

    OPENCL = ("enqueue_task", "enqueue_read_buffer", "finish")

    def __init__(self, tier, gateway, overhead: Overhead):
        self.overhead = overhead
        self.by_job: dict[int, Request] = {}
        self.batches: list[_Batch] = []
        self.n_workers = 0
        self.started = time.monotonic()
        self._instrument(tier, gateway)

    # -- wrappers --------------------------------------------------------------

    def _timed(self, fn, record):
        def timed(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record(args, perf_counter_ns() - t0)

        return timed

    def _add(self, hop):
        """Recorder that charges a call to the request of its job argument."""
        by_job = self.by_job

        def record(args, ns):
            req = by_job.get(args[1 if hop == "admit" else 0].job_id)
            if req is not None:
                _accumulate(req.hops, hop, ns)

        return record

    def _instrument(self, tier, gateway) -> None:
        admit = self._timed(gateway.admit_sync, self._add("admit"))

        def admit_sync(tenant, job, *args, **kwargs):
            handle = admit(tenant, job, *args, **kwargs)
            hops = self.by_job[job.job_id].hops

            def fulfilled(h):
                hops["fulfilled"] = time.monotonic()
                hops["submitted"] = h.submitted_at
                hops["picked"] = h.picked_up_at

            handle.add_done_callback(fulfilled)
            return handle

        gateway.admit_sync = admit_sync
        tier.submit = self._timed(tier.submit, self._add("ring"))
        for shard in tier.shards.values():
            shard.submit = self._timed(shard.submit, self._add("submit"))
            shard.queue.put = self._timed(shard.queue.put, self._add("put"))
            for worker in shard.pool.workers:
                self._instrument_worker(worker)

    def _instrument_worker(self, worker) -> None:
        self.n_workers += 1
        opencl = [0]  # this worker's thread alone touches it

        def add_opencl(args, ns):
            opencl[0] += ns

        session = worker.session
        for method in self.OPENCL:
            setattr(
                session.queue, method,
                self._timed(getattr(session.queue, method), add_opencl),
            )
        session.context.create_buffer = self._timed(
            session.context.create_buffer, add_opencl
        )
        execute = worker.execute

        def timed_execute(batch):
            opencl[0] = 0
            start = time.monotonic()
            t0 = perf_counter_ns()
            try:
                return execute(batch)
            finally:
                ns = perf_counter_ns() - t0
                end = time.monotonic()
                self.batches.append(_Batch(ns, batch.size, opencl[0]))
                for job in batch.jobs:
                    req = self.by_job.get(job.job_id)
                    if req is not None:
                        req.hops["exec"] = (start, end)

        worker.execute = timed_execute

    def make_job(self, event, req):
        job = job_from_event(event)
        self.by_job[job.job_id] = req
        for method, hop in (("compute", "compute"), ("device_seconds", "device")):
            setattr(job, method, self._timed(
                getattr(job, method),
                lambda args, ns, hop=hop: _accumulate(req.hops, hop, ns),
            ))
        return job

    # -- results ---------------------------------------------------------------

    def _self_us(self, req) -> dict:
        """Calibrated self time of each asyncio-thread hop, in µs."""
        h, o = req.hops, self.overhead
        inner = {k: h.get(k, 0) - h.get(k + "_calls", 0) * o.inside_ns
                 for k in ("admit", "ring", "submit", "put")}
        outer = {k: h.get(k, 0) + h.get(k + "_calls", 0) * o.outside_ns
                 for k in ("ring", "submit", "put")}
        return {
            "admit": (inner["admit"] - outer["ring"]) / 1e3,
            "ring": (inner["ring"] - outer["submit"]) / 1e3,
            "submit": (inner["submit"] - outer["put"]) / 1e3,
            "put": inner["put"] / 1e3,
        }

    def _segments(self, req) -> dict:
        """Contiguous hops from due time to future resolution, in s."""
        h = req.hops
        start, end = h["exec"]
        return {
            "lag": req.sent - req.due,
            "admit": h["admit"] / 1e9,
            "queue": h["picked"] - h["submitted"],
            "dispatch": start - h["picked"],
            "execute": end - start,
            "complete": h["fulfilled"] - end,
            "resolve": req.done - h["fulfilled"],
        }

    def layer_metrics(self, requests, name, out_dir):
        done = [
            r for r in requests
            if r.outcome == "ok" and "fulfilled" in r.hops and "exec" in r.hops
        ]
        wall = time.monotonic() - self.started
        selfs = [self._self_us(r) for r in done]
        segments = [self._segments(r) for r in done]
        waits = [1e3 * s["queue"] for s in segments]
        executes = [b.ns / 1e6 for b in self.batches]
        jobs = [r.hops for r in done if "compute_calls" in r.hops]
        o_in = self.overhead.inside_ns

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        values = {
            "serve.gateway.admit_us": mean([s["admit"] for s in selfs]),
            "serve.ring.submit_us": mean([s["ring"] for s in selfs]),
            "engine.submit_us": mean([s["submit"] for s in selfs]),
            "engine.queue.put_us": mean([s["put"] for s in selfs]),
            "serve.bridge.resolve_us": mean([1e6 * s["resolve"] for s in segments]),
            "engine.queue.wait_ms.p50": percentile(waits, 0.50),
            "engine.queue.wait_ms.p99": percentile(waits, 0.99),
            "engine.batch.size_mean": mean([b.size for b in self.batches]),
            "engine.batch.count": len(self.batches),
            "engine.worker.execute_ms.p50": percentile(executes, 0.50),
            "engine.worker.execute_ms.p99": percentile(executes, 0.99),
            "engine.worker.busy_frac": sum(b.ns for b in self.batches)
            / 1e9 / (self.n_workers * wall),
            "engine.job.compute_ms": mean([(j["compute"] - o_in) / 1e6 for j in jobs]),
            "engine.job.device_model_us": mean(
                [(j["device"] - j["device_calls"] * o_in) / 1e3 for j in jobs]
            ),
            "opencl.timeline_us": mean([b.opencl_ns / 1e3 for b in self.batches]),
        }
        hop_sum = sum(sum(s.values()) for s in segments)
        latency_sum = sum(r.latency for r in done)
        sum_frac = hop_sum / latency_sum if latency_sum else 0.0
        lines = [
            f"traced: {len(done)} completed requests, {len(self.batches)} batches, "
            f"wrapper cost {o_in:.0f}+{self.overhead.outside_ns:.0f} ns/call",
            f"per-request hops sum to {100 * sum_frac:.1f}% of latency",
        ]
        if segments:
            for hop in segments[0]:
                share = sum(s[hop] for s in segments) / latency_sum
                lines.append(f"  {hop:<10} {share:7.1%} of latency")
        if out_dir is not None:
            self._export(done, segments, name, Path(out_dir))
        return values, lines, abs(sum_frac - 1.0) <= metrics.SELF_SUM_TOLERANCE

    @staticmethod
    def _export(done, segments, name, out_dir: Path) -> None:
        """One Chrome trace: a span per hop per request, args = trace index."""
        tracer = ChromeTracer()
        tracks = {hop: tracer.track(name, hop) for hop in (segments[0] if segments else ())}
        for req, segs in zip(done, segments):
            at = req.due
            for hop, dur in segs.items():
                tracer.complete(
                    tracks[hop], hop, ts_us=tracer.wall_us(at), dur_us=1e6 * dur,
                    args={"index": req.event.index},
                )
                at += dur
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.export(str(out_dir / f"{name}.trace.json"))
