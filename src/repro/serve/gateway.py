"""Async admission gateway: per-tenant rate limits + deadline-aware shedding.

The engine tier speaks threads and blocking calls (that is what the
paper's host runtime looks like); a million-user front door speaks
asyncio.  :class:`AdmissionGateway` bridges the two without inventing a
third error vocabulary:

* **per-tenant token buckets** throttle each tenant to its contracted
  rate before the job ever touches a shard queue.  A throttled submit
  raises :class:`TenantThrottled`, a subclass of the engine's own
  :class:`~repro.engine.queue.JobQueueFull`, so every caller that
  already handles queue sheds handles tenant sheds for free;
* **deadline-aware pre-shedding** rejects jobs whose end-to-end budget
  cannot plausibly be met given the tier's current service-time
  estimate (an EWMA over observed job latencies) — shedding at the door
  is strictly cheaper than letting the engine's deadline watchdog kill
  the job after it has consumed queue and worker capacity;
* the **async/thread bridge** converts a :class:`JobHandle` into an
  ``asyncio.Future`` via :meth:`JobHandle.add_done_callback`, with the
  worker-thread callback trampolining through
  ``loop.call_soon_threadsafe`` — no polling, no thread-per-await.

Everything takes an injectable ``now`` clock so the virtual-time tier
simulator in :mod:`repro.serve.loadgen` can drive the *same* policy
objects deterministically.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.engine.engine import JobHandle
from repro.engine.jobs import Job
from repro.engine.queue import EngineError, JobQueueFull
from repro.engine.resilience import JobDeadlineExceeded
from repro.obs import MetricsRegistry, get_request_log

__all__ = [
    "TokenBucket",
    "TenantPolicy",
    "TenantThrottled",
    "ServiceEstimate",
    "AdmissionGateway",
]


class TenantThrottled(JobQueueFull):
    """Tenant exceeded its contracted rate; retriable after refill.

    Subclasses :class:`JobQueueFull` deliberately: to a caller, "your
    bucket is empty" and "the tier's queue is full" demand the same
    response (back off, retry), so they share a type.
    """


class TokenBucket:
    """Classic token bucket with an injectable clock.

    ``rate`` tokens/second refill continuously up to ``burst``; each
    admission costs one token.  With an explicit ``now`` the bucket is a
    pure function of its call history — the virtual-time simulator and
    the wall-clock gateway share this exact implementation.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = None  # set on first use, in the caller's timebase
        self._lock = threading.Lock()

    def try_acquire(self, now: float | None = None, cost: float = 1.0) -> bool:
        t = time.monotonic() if now is None else now
        with self._lock:
            if self._last is None:
                self._last = t
            elapsed = max(0.0, t - self._last)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = t
            if self._tokens >= cost:
                self._tokens -= cost
                return True
            return False

    def available(self, now: float | None = None) -> float:
        t = time.monotonic() if now is None else now
        with self._lock:
            if self._last is None:
                return self._tokens
            elapsed = max(0.0, t - self._last)
            return min(self.burst, self._tokens + elapsed * self.rate)


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission contract."""

    rate: float = 50.0  # sustained jobs/second
    burst: float = 100.0  # bucket depth (tolerated spike)


class ServiceEstimate:
    """EWMA of observed end-to-end job latency, for deadline pre-shed.

    ``alpha`` weights the newest observation; the estimate starts at
    ``initial_s`` so the gateway has a (conservative) opinion before the
    first completion.  Thread-safe — completions report from engine
    worker threads while admissions read from the event loop.
    """

    def __init__(self, initial_s: float = 0.0, alpha: float = 0.1):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value = float(initial_s)
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, latency_s: float) -> None:
        with self._lock:
            if self._count == 0 and self._value == 0.0:
                self._value = float(latency_s)
            else:
                self._value += self.alpha * (float(latency_s) - self._value)
            self._count += 1

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


class AdmissionGateway:
    """Front door for a sharded engine tier.

    Parameters
    ----------
    tier:
        Anything with ``submit(job) -> JobHandle`` — a
        :class:`~repro.serve.sharding.ShardedEngine` or a bare
        :class:`~repro.engine.engine.ExecutionEngine`.
    default_policy:
        Token-bucket contract applied to tenants without an explicit
        entry in ``policies``.
    policies:
        Per-tenant overrides, keyed by tenant id.
    deadline_headroom:
        Pre-shed factor: a job with deadline ``d`` is rejected at the
        door when ``estimate * deadline_headroom > d`` (the tier would
        almost certainly miss it anyway).  ``0`` disables pre-shedding.
    """

    def __init__(
        self,
        tier,
        default_policy: TenantPolicy | None = None,
        policies: dict | None = None,
        deadline_headroom: float = 1.0,
        estimate_alpha: float = 0.1,
    ):
        if deadline_headroom < 0:
            raise ValueError("deadline_headroom must be >= 0")
        self.tier = tier
        self.default_policy = default_policy or TenantPolicy()
        self.policies: dict = dict(policies or {})
        self.deadline_headroom = deadline_headroom
        self.estimate = ServiceEstimate(alpha=estimate_alpha)
        # bounded histograms: the gateway outlives any single benchmark
        self.metrics = MetricsRegistry(
            prefix="gateway.", bounded_histograms=True
        )
        self._buckets: dict = {}
        self._buckets_lock = threading.Lock()
        self._sweep_at = 0  # twice the map's size after the last sweep

    # -- policy ------------------------------------------------------------------

    def _take_token(self, tenant, now: float | None) -> bool:
        """Spend one token of ``tenant``'s bucket, made on first use.

        A bucket that has refilled to ``burst`` admits exactly like a new
        one, so once the map has more than doubled since the last sweep,
        the next new tenant sweeps every full bucket out.  The map then
        holds the tenants that spent a token within one refill time, not
        every tenant ever seen, at amortized O(1) per admission.  Lookup,
        sweep, spend and their clock reads share one lock, so no
        admission spends from a bucket that a sweep has dropped, and no
        sweep runs at a later time than the spend after it.
        """
        with self._buckets_lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                if len(self._buckets) > self._sweep_at:
                    t = time.monotonic() if now is None else now
                    self._buckets = {
                        name: held
                        for name, held in self._buckets.items()
                        if held.available(t) < held.burst
                    }
                    self._sweep_at = 2 * len(self._buckets)
                policy = self.policies.get(tenant, self.default_policy)
                bucket = TokenBucket(rate=policy.rate, burst=policy.burst)
                self._buckets[tenant] = bucket
            return bucket.try_acquire(now=now)

    def would_miss_deadline(
        self, job: Job, now: float | None = None
    ) -> bool:
        """True when the service estimate says the budget is hopeless."""
        if self.deadline_headroom <= 0 or job.deadline_s is None:
            return False
        if self.estimate.count == 0:
            return False  # no evidence yet; let the watchdog decide
        return self.estimate.value * self.deadline_headroom > job.deadline_s

    # -- synchronous core (shared by asyncio + virtual-time callers) -------------

    def admit_sync(
        self, tenant, job: Job, now: float | None = None
    ) -> JobHandle:
        """Throttle, pre-shed, then hand to the tier.  Blocking-free.

        Raises :class:`TenantThrottled` (a :class:`JobQueueFull`) when
        the tenant's bucket is dry, :class:`JobDeadlineExceeded` when
        pre-shedding fires, and propagates whatever typed error the
        tier's own admission raises.
        """
        t = time.monotonic() if now is None else now
        rlog = get_request_log()
        if rlog is not None and job.trace is None:
            job.trace = rlog.mint(
                ("req", job.job_id),
                tenant=tenant,
                batch_key=job.batch_key(),
                deadline_s=job.deadline_s,
            )
        ctx = job.trace
        if ctx is not None:
            ctx.emit("gateway", "admit", t=t, tenant=tenant)
        if not self._take_token(tenant, now):
            self.metrics.counter("tenant_throttled").inc()
            if ctx is not None:
                ctx.emit(
                    "gateway", "throttled", t=t, status="shed",
                    terminal=True, tenant=tenant,
                )
            raise TenantThrottled(
                f"tenant {tenant!r} over its contracted rate"
            )
        if self.would_miss_deadline(job, now=now):
            self.metrics.counter("deadline_preshed").inc()
            if ctx is not None:
                ctx.emit(
                    "gateway", "deadline", t=t, status="shed",
                    terminal=True, tenant=tenant,
                    estimate_s=self.estimate.value,
                )
            raise JobDeadlineExceeded(
                f"job {job.job_id}: {job.deadline_s:.3f}s budget < "
                f"estimated {self.estimate.value:.3f}s service"
            )
        try:
            handle = self.tier.submit(job)
        except EngineError as exc:
            # catch-all terminal: inner layers (sharding, engine) close
            # chains for the errors they own; first-terminal-wins in the
            # log makes this safe for the ones they already closed
            if ctx is not None:
                kind = (
                    "deadline"
                    if isinstance(exc, JobDeadlineExceeded)
                    else "queue_full"
                )
                ctx.emit(
                    "gateway", kind,
                    t=time.monotonic() if now is None else now,
                    status="shed", terminal=True, tenant=tenant,
                    error=type(exc).__name__,
                )
            raise
        self.metrics.counter("admitted").inc()
        handle.add_done_callback(self._observe_completion)
        return handle

    def _observe_completion(self, handle: JobHandle) -> None:
        # feed the EWMA only from successful completions; error paths
        # (deadline sheds, worker faults) would bias the estimate with
        # truncated or pathological latencies
        if handle.error is None:
            latency = time.monotonic() - handle.submitted_at
            self.estimate.observe(latency)
            self.metrics.counter("completed").inc()
            self.metrics.histogram("latency_s").observe(latency)
        else:
            self.metrics.counter("failed").inc()

    # -- asyncio bridge ----------------------------------------------------------

    async def submit(self, tenant, job: Job) -> "asyncio.Future":
        """Admit ``job`` and return an awaitable future of its result.

        Admission itself is non-blocking (the tier sheds instead of
        blocking), so it runs inline on the event loop; the returned
        future resolves when the engine's worker thread fulfills the
        handle, trampolined through ``loop.call_soon_threadsafe``.
        Awaiting the future re-raises the job's typed error, exactly
        like :meth:`JobHandle.result` does.
        """
        loop = asyncio.get_running_loop()
        handle = self.admit_sync(tenant, job)
        return self.bridge(handle, loop)

    @staticmethod
    def bridge(
        handle: JobHandle, loop: "asyncio.AbstractEventLoop"
    ) -> "asyncio.Future":
        """asyncio future that mirrors a threaded :class:`JobHandle`."""
        future: asyncio.Future = loop.create_future()

        def _resolve(h: JobHandle) -> None:
            if future.cancelled():
                return
            if h.error is not None:
                future.set_exception(h.error)
            else:
                future.set_result(h._result)  # noqa: SLF001 — same package family

        def _from_thread(h: JobHandle) -> None:
            loop.call_soon_threadsafe(_resolve, h)

        handle.add_done_callback(_from_thread)
        return future

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict:
        out = self.metrics.snapshot()
        out["gateway.service_estimate_s"] = self.estimate.value
        out["gateway.live_tenant_buckets"] = len(self._buckets)
        return out
