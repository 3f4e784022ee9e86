"""One shard's scheduler, shared by the live engine and the virtual tier.

In the paper's Listing 1 a decoupled work-item pulls its next token
from its stream when it is free.  :class:`ShardCore` schedules a shard
the same way and makes every scheduling decision of it, reading no
clock and taking no lock: each call is given ``now``.  The live
:class:`~repro.engine.engine.ExecutionEngine` calls it from its worker
threads under the admission queue's lock on ``time.monotonic()``; the
virtual shard of :func:`repro.serve.loadgen.simulate_tier` calls it
from an event loop on the trace's clock.  So both tiers put the same
jobs in one batch and send each attempt to the same worker.

The rules:

* A batch forms when a worker takes it: a fresh attempt takes the
  queue head with :func:`~repro.engine.queue.take_batch` at its start,
  so jobs that arrive while every worker is busy still join it.  No
  formed batch waits outside the queue.
* The policy picks the free worker that takes the next attempt:
  ``fifo`` the one idle longest (smallest free time, list order on
  ties), ``least-loaded`` the one with the least modeled device time.
* A failed job retries after the :class:`RetryPolicy` backoff.  A
  ready retry goes ahead of a fresh batch that would start at the same
  time, and it avoids every worker that failed it until all have.
* A worker whose breaker opened is not free before its cooldown ends.
  A breaker keeps its own clock; the core only records outcomes on it
  and, when an attempt starts, lets it take the open → half-open step.
* Expired jobs are shed where a batch forms and where a retry starts.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Callable, NamedTuple, Sequence

from repro.engine.queue import take_batch
from repro.engine.resilience import CircuitBreaker, RetryPolicy

__all__ = ["Attempt", "Pick", "ShardCore", "POLICIES"]

#: the pickup rules ``policy`` accepts
POLICIES = ("fifo", "least-loaded")


class Pick(NamedTuple):
    """The attempt that starts first: when, on which worker, and the
    retry it runs (None for a fresh batch from the queue head)."""

    start: float
    worker: int
    retry: tuple | None


class Attempt(NamedTuple):
    """One started attempt, as :meth:`ShardCore.begin` formed it."""

    worker: int
    start: float
    jobs: list  # empty when every job it took had expired
    expired: list  # jobs shed at the start, for the caller to resolve
    attempt: int  # 1 for a fresh batch
    avoid: frozenset  # workers that already failed these jobs
    batch_id: int | None  # a retry's id; None for a fresh batch


class ShardCore:
    """Scheduling state of one shard: free times and pending retries.

    Parameters
    ----------
    names:
        Worker names, in the order that breaks ties.
    breakers:
        One :class:`CircuitBreaker` (or None) per worker, aligned with
        ``names``.
    max_batch:
        Occupancy ceiling per batch; 1 disables coalescing.
    policy:
        ``"fifo"`` or ``"least-loaded"`` (see the module docstring).
    retry:
        The backoff of failed jobs; ``None`` uses the default policy.
    load:
        ``load(index)`` is a worker's modeled device time, which
        ``least-loaded`` compares.
    arrival:
        ``arrival(job)`` is the time a queued job arrived; ``None``
        means every queued job has arrived (the live queue).

    The queue itself stays with the caller and is passed to
    :meth:`next_start` and :meth:`begin`.
    """

    def __init__(
        self,
        names: Sequence[str],
        breakers: Sequence[CircuitBreaker | None],
        max_batch: int,
        policy: str = "fifo",
        retry: RetryPolicy | None = None,
        load: Callable[[int], float] | None = None,
        arrival: Callable[[object], float] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; known: {list(POLICIES)}"
            )
        if policy == "least-loaded" and load is None:
            raise ValueError("least-loaded needs the workers' load")
        self.names = list(names)
        self.breakers = list(breakers)
        self.max_batch = max_batch
        self.policy = policy
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.load = load
        self.arrival = arrival
        #: when each worker can take its next attempt (inf while it runs one)
        self.free_at = [0.0] * len(self.names)
        #: failed jobs waiting out their backoff, earliest ready first:
        #: (ready_at, batch_id, attempt, jobs, avoid)
        self.retrying: list = []

    @property
    def idle(self) -> bool:
        """No worker is running an attempt."""
        return math.inf not in self.free_at

    def _pick(self, ready_at: float, now: float, avoid: frozenset = frozenset()):
        """``(start, worker)`` for work ready at ``ready_at``."""
        free_at = self.free_at
        candidates = range(len(free_at))
        if avoid:
            candidates = [
                i for i in candidates if self.names[i] not in avoid
            ] or candidates
        first = min(candidates, key=free_at.__getitem__)
        start = max(ready_at, free_at[first])
        if self.policy == "fifo":
            return start, first
        by = max(start, now)  # a late pickup sees every worker freed since
        free = [i for i in candidates if free_at[i] <= by]
        return start, min(free, key=self.load)

    def next_start(self, waiting: deque, now: float = -math.inf) -> Pick | None:
        """The attempt that starts first, or None when nothing waits.

        A worker running an attempt is free at infinity, so a pick
        whose start is infinite waits for a worker to finish.  ``now``
        is when the caller decides, if that is later than the start
        (a live pickup): ``least-loaded`` then picks among every worker
        free by ``now``.
        """
        best = None
        for retry in self.retrying:
            start, worker = self._pick(retry[0], now, retry[4])
            if best is None or start < best.start:
                best = Pick(start, worker, retry)
        if waiting:
            ready = -math.inf if self.arrival is None else self.arrival(waiting[0])
            start, worker = self._pick(ready, now)
            if best is None or start < best.start:
                best = Pick(start, worker, None)
        return best

    def begin(self, pick: Pick, now: float, waiting: deque) -> Attempt:
        """Start ``pick`` at ``now``: form its batch, shed what expired.

        The worker is busy from here until :meth:`finish`, unless
        every job the attempt took had expired: then it stays free.
        """
        if pick.retry is None:
            jobs, expired = take_batch(waiting, self.max_batch, now)
            attempt, avoid, batch_id = 1, frozenset(), None
        else:
            self.retrying.remove(pick.retry)
            _, batch_id, attempt, pending, avoid = pick.retry
            jobs = [job for job in pending if not job.expired(now)]
            expired = [job for job in pending if job.expired(now)]
        if jobs:
            self.free_at[pick.worker] = math.inf
            breaker = self.breakers[pick.worker]
            if breaker is not None:
                breaker.admit()  # the open -> half-open step after a fence
        return Attempt(
            pick.worker, now, jobs, expired, attempt, avoid, batch_id
        )

    def finish(
        self,
        worker: int,
        now: float,
        fault: bool = False,
        failed: Sequence = (),
        attempt: int = 1,
        avoid: frozenset = frozenset(),
        batch_id: int | None = None,
    ) -> float:
        """End ``worker``'s attempt at ``now``; returns the retry backoff.

        ``fault`` says the worker, not a job, failed the attempt (what
        its breaker counts).  ``failed`` jobs retry as ``batch_id``
        after the backoff, avoiding this worker too; the backoff is 0.0
        when nothing retries.
        """
        self.free_at[worker] = now
        breaker = self.breakers[worker]
        if breaker is not None:
            if fault:
                breaker.record_failure()
                if breaker.state == CircuitBreaker.OPEN:
                    # one ulp past the cooldown, so that the breaker's
                    # own `now - opened_at` cannot round below it
                    self.free_at[worker] = math.nextafter(
                        now + breaker.cooldown_s, math.inf
                    )
            else:
                breaker.record_success()
        if not failed:
            return 0.0
        delay = self.backoff(attempt, failed)
        bisect.insort(
            self.retrying,
            (
                now + delay, batch_id, attempt + 1, list(failed),
                avoid | {self.names[worker]},
            ),
        )
        return delay

    def backoff(self, attempt: int, failed: Sequence) -> float:
        """The wait before ``failed`` jobs of ``attempt`` retry: keyed on
        the first job's seed, so a rerun of the same seeds (or the other
        tier) backs off identically."""
        return self.retry_policy.delay_s(attempt, key=failed[0].seed)

    def abandon(self, waiting: deque) -> list:
        """Remove and return every job still queued or retrying."""
        jobs = list(waiting)
        waiting.clear()
        for retry in self.retrying:
            jobs.extend(retry[3])
        self.retrying.clear()
        return jobs
