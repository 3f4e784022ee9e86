"""Consistent-hash sharding of jobs across N execution-engine shards.

The pipes paper's FIFO semantics already govern admission *into* one
engine; this module extends the same blocking/shedding contract across
``N`` engines, the way MKPipe overlaps independent kernel streams: each
shard owns its own bounded queue and device workers, and shards never
share mutable state — the tier-level mirror of the paper's decoupled
work-items.

Routing is **keyed on the job's batch key** (not the job id), so every
job that could coalesce into one §III-E device transaction lands on the
same shard, whose workers still see the full run of compatible work
when they form their batches.  The hash ring uses virtual nodes hashed
with blake2b (deterministic across processes and Python hash seeds —
the property the replayable load traces need), so routing is a pure
function of ``(key, shard set, ring seed)``.  A tier's shards are fixed
at construction, and so is its ring.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from typing import Hashable, Iterable, Sequence

from repro.engine.engine import ExecutionEngine, JobHandle
from repro.engine.jobs import Job
from repro.engine.queue import (
    EngineError,
    JobQueueClosed,
    JobQueueFull,
    SubmitTimeout,
)
from repro.engine.resilience import JobDeadlineExceeded, RetryPolicy
from repro.obs import MetricsRegistry

__all__ = ["ShardRing", "ShardedEngine", "stable_hash"]


def stable_hash(key: Hashable, seed: int = 0) -> int:
    """64-bit blake2b hash of ``repr(key)`` — stable across processes.

    Python's builtin ``hash`` is salted per process for strings, which
    would make shard assignment irreproducible between a trace-recording
    run and its replay; blake2b of the repr is not.
    """
    digest = hashlib.blake2b(
        repr((seed, key)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash ring over shard names with virtual nodes.

    Parameters
    ----------
    shards:
        Shard names (order-insensitive; the ring is a pure function of
        the set).
    replicas:
        Virtual nodes per shard; more replicas, smoother balance.
    seed:
        Ring salt, so two independent tiers can shard differently.

    The ring is immutable once built, so routing takes no lock.
    """

    def __init__(self, shards: Iterable[str], replicas: int = 64, seed: int = 0):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self.seed = seed
        names = list(shards)
        if not names:
            raise ValueError("ring needs at least one shard")
        if len(set(names)) != len(names):
            raise ValueError(f"shard names must be unique, got {names}")
        self._n_shards = len(names)
        self._points: list[tuple[int, str]] = sorted(
            (stable_hash(("vnode", shard, i), seed), shard)
            for shard in names
            for i in range(replicas)
        )

    def route(self, key: Hashable) -> str:
        """Shard owning ``key``: first ring point at/after the key hash."""
        return self.preference(key)[0]

    def preference(self, key: Hashable) -> list[str]:
        """Every shard, in ring order from the key's hash (no repeats).

        ``preference(key)[0]`` is the primary owner; the rest is the
        deterministic spillover order a gateway walks when the primary
        sheds or its breakers are open.
        """
        h = stable_hash(key, self.seed)
        points = self._points
        start = bisect.bisect_left(points, (h, ""))
        seen: list[str] = []
        for i in range(len(points)):
            shard = points[(start + i) % len(points)][1]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == self._n_shards:
                    break
        return seen


class ShardedEngine:
    """N independent :class:`ExecutionEngine` shards behind one ring.

    Each shard owns its own bounded queue and device workers; jobs
    route by batch key so §III-E coalescing still happens inside one
    shard.  A shard that sheds (full queue, submit timeout) or
    whose every breaker is open is walked past, up to ``spill`` extra
    ring hops — the tier-level reroute the resilience story needs —
    before the typed error propagates to the caller.

    Parameters mirror :class:`ExecutionEngine` where they share a name;
    ``admission`` defaults to ``"shed"`` because a tier fronted by a
    gateway wants typed backpressure, not blocked submitter threads.
    """

    def __init__(
        self,
        n_shards: int = 4,
        n_workers: int = 2,
        device: str = "FPGA",
        config: str = "Config1",
        queue_depth: int = 64,
        max_batch: int = 8,
        policy: str = "fifo",
        admission: str = "shed",
        submit_timeout_s: float | None = None,
        faults=None,
        default_deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        breaker_config: dict | None = None,
        spill: int = 1,
        ring_replicas: int = 64,
        ring_seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if spill < 0:
            raise ValueError("spill must be >= 0")
        self.spill = spill
        names = [f"shard{i}" for i in range(n_shards)]
        self.ring = ShardRing(names, replicas=ring_replicas, seed=ring_seed)
        self.shards: dict[str, ExecutionEngine] = {
            name: ExecutionEngine(
                n_workers=n_workers,
                device=device,
                config=config,
                queue_depth=queue_depth,
                max_batch=max_batch,
                policy=policy,
                admission=admission,
                submit_timeout_s=submit_timeout_s,
                faults=faults,
                default_deadline_s=default_deadline_s,
                retry=retry,
                breaker_config=breaker_config,
                name=name,
                worker_prefix=f"s{i}w",
            )
            for i, name in enumerate(names)
        }
        self.metrics = MetricsRegistry(
            prefix="tier.", bounded_histograms=True
        )
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ShardedEngine":
        if self._started:
            raise RuntimeError("tier already started")
        self._started = True
        for shard in self.shards.values():
            shard.start()
        return self

    def __enter__(self) -> "ShardedEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def drain(self, timeout: float | None = 60.0) -> bool:
        return all(s.drain(timeout) for s in self.shards.values())

    def shutdown(self, drain: bool = True, timeout: float | None = 60.0):
        for shard in self.shards.values():
            shard.shutdown(drain=drain, timeout=timeout)

    # -- health ------------------------------------------------------------------

    def shard_healthy(self, name: str) -> bool:
        """False when every breaker of the shard refuses admission.

        A shard with all breakers open cannot place a batch anywhere;
        routing walks past it instead of parking jobs behind a cooldown
        (breakerless shards are always healthy).
        """
        breakers = self.shards[name].pool.breakers
        if not breakers:
            return True
        return any(b.can_admit() for b in breakers.values())

    # -- submission --------------------------------------------------------------

    def route(self, job: Job) -> str:
        """The shard this job's batch key belongs to (health-blind)."""
        return self.ring.route(job.batch_key())

    def submit(self, job: Job) -> JobHandle:
        """Admit through the owning shard, spilling around trouble.

        Walks the ring's preference order: unhealthy shards (every
        breaker open) are skipped outright, and a shard that sheds with
        :class:`JobQueueFull`/:class:`SubmitTimeout`/:class:`JobQueueClosed`
        passes the job to the next shard, up to ``spill`` extra hops.
        Deadline errors never reroute — the budget is end-to-end, and a
        second admission attempt would just burn more of it.  The last
        typed error propagates when every candidate refused.

        A shard skipped for breaker health is *out* of this submit: it
        is never revisited as a spillover target.  When every candidate
        is unhealthy the job goes to the primary owner alone (whose
        half-open breaker may still admit it, or whose typed error is
        the honest answer) — walking the already-condemned spillover
        shards would just probe breakers we decided not to trust.
        """
        ctx = job.trace
        prefs = self.ring.preference(job.batch_key())
        candidates = prefs[: 1 + self.spill]
        healthy = [n for n in candidates if self.shard_healthy(n)]
        if len(healthy) < len(candidates):
            skipped = (
                [n for n in candidates if n not in healthy]
                if healthy
                else candidates[1:]
            )
            if skipped:
                self.metrics.counter("reroutes_breaker").inc(len(skipped))
                if ctx is not None:
                    for name in skipped:
                        ctx.emit(
                            "shard", "breaker_skip", t=time.monotonic(),
                            shard=name,
                        )
        order = healthy or candidates[:1]
        if ctx is not None:
            ctx.emit(
                "shard", "route", t=time.monotonic(),
                shard=order[0], candidates=list(order),
            )
        last_error: EngineError | None = None
        for i, name in enumerate(order):
            try:
                handle = self.shards[name].submit(job)
            except JobDeadlineExceeded:
                self.metrics.counter("jobs_deadline_shed").inc()
                if ctx is not None:
                    ctx.emit(
                        "shard", "deadline", t=time.monotonic(),
                        status="shed", terminal=True, shard=name,
                    )
                raise
            except (JobQueueFull, SubmitTimeout, JobQueueClosed) as exc:
                last_error = exc
                if i + 1 < len(order):
                    self.metrics.counter("reroutes_shed").inc()
                    if ctx is not None:
                        ctx.emit(
                            "shard", "spill", t=time.monotonic(),
                            status="shed",
                            from_shard=name, to_shard=order[i + 1],
                            error=type(exc).__name__,
                        )
                continue
            if i > 0:
                self.metrics.counter("jobs_spilled").inc()
            self.metrics.counter("jobs_submitted").inc()
            return handle
        self.metrics.counter("jobs_shed").inc()
        assert last_error is not None
        if ctx is not None:
            # the whole candidate set refused: this is the tier's final
            # word, so close the chain with the always-captured shed
            ctx.emit(
                "shard", "queue_full", t=time.monotonic(),
                status="shed", terminal=True,
                error=type(last_error).__name__,
            )
        raise last_error

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        """Per-shard :class:`~repro.engine.stats.EngineStats`."""
        return {name: shard.stats() for name, shard in self.shards.items()}

    def stats_dict(self) -> dict:
        """Aggregate + per-shard plain-dict report for ``--json`` sinks."""
        per_shard = {
            name: stats.to_dict() for name, stats in self.stats().items()
        }
        totals = {
            key: sum(s[key] for s in per_shard.values())
            for key in (
                "jobs_completed",
                "jobs_shed",
                "jobs_deadline_shed",
                "batches",
                "retries",
                "modeled_device_seconds",
            )
        }
        totals["modeled_makespan_s"] = max(
            (s["modeled_makespan_s"] for s in per_shard.values()),
            default=0.0,
        )
        # tier-wide slowest-K: merge the per-shard exemplar heaps so a
        # BENCH p99 row names the trace ids worth pulling
        exemplars = sorted(
            (
                {**ex, "shard": name}
                for name, s in per_shard.items()
                for ex in s.get("latency_exemplars", [])
            ),
            key=lambda ex: ex["total_s"],
            reverse=True,
        )[:16]
        sampling = [
            s["trace_sampling"]
            for s in per_shard.values()
            if s.get("trace_sampling") is not None
        ]
        return {
            "n_shards": len(self.shards),
            "tier_metrics": self.metrics.snapshot(),
            "totals": totals,
            "shards": per_shard,
            "latency_exemplars": exemplars,
            "trace_sampling": sampling[0] if sampling else None,
        }

    def unresolved_handles(self, handles: Sequence[JobHandle]) -> int:
        """How many of ``handles`` never resolved (0 after shutdown)."""
        return sum(1 for h in handles if not h.done)
