"""Request coalescing: compatible jobs merge into one device batch.

The paper's §III-E weighs N per-work-item buffers (N PCIe round trips)
against one combined device buffer (a single read request) and picks the
latter.  The batcher applies the same economics one level up: jobs whose
:meth:`~repro.engine.jobs.Job.batch_key` match are drained from the
bounded queue together and dispatched as *one* device transaction — one
kernel enqueue, one readback — so the per-request fixed costs (kernel
launch, PCIe latency) amortize across the batch.

An optional *linger* keeps the batcher waiting briefly for more
compatible work when the queue runs dry, trading a bounded latency add
for better occupancy — the knob every serving system exposes.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.engine.jobs import Job
from repro.engine.queue import BoundedJobQueue

__all__ = ["Batch", "Batcher"]

_batch_ids = itertools.count(1)
_batch_ids_lock = threading.Lock()


@dataclass
class Batch:
    """One coalesced device transaction.

    ``attempt`` counts dispatches of this job set (1 = first try;
    retries of a failed attempt re-batch with ``attempt + 1``), and
    ``avoid`` names workers a retry must steer away from (the ones
    that already failed it).
    """

    jobs: list[Job]
    attempt: int = 1
    avoid: frozenset[str] = frozenset()
    batch_id: int = field(
        default_factory=lambda: _next_batch_id(), init=False
    )

    def __post_init__(self):
        if not self.jobs:
            raise ValueError("a batch needs at least one job")

    @property
    def key(self) -> Hashable:
        return self.jobs[0].batch_key()

    @property
    def size(self) -> int:
        return len(self.jobs)

    def result_bytes(self) -> int:
        return sum(job.result_bytes() for job in self.jobs)


def _next_batch_id() -> int:
    with _batch_ids_lock:
        return next(_batch_ids)


class Batcher:
    """Drains a :class:`BoundedJobQueue` into :class:`Batch` objects.

    Parameters
    ----------
    queue:
        The admission queue to drain.
    max_batch:
        Occupancy ceiling per batch; 1 disables coalescing (the serial
        one-job-per-transaction baseline).
    linger_s:
        After a partial drain, wait up to this long for more compatible
        jobs before dispatching (0 disables lingering).  A lingering
        batch never waits past the earliest deadline of the jobs it
        already holds.
    on_expired:
        Called (from the dispatcher thread) with each job whose
        deadline passed while it waited in the queue; expired jobs are
        shed here instead of occupying a batch slot and device time.
    """

    def __init__(
        self,
        queue: BoundedJobQueue,
        max_batch: int = 8,
        linger_s: float = 0.0,
        on_expired: Callable[[Job], None] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if linger_s < 0:
            raise ValueError("linger_s must be >= 0")
        self.queue = queue
        self.max_batch = max_batch
        self.linger_s = linger_s
        self.on_expired = on_expired
        self.tracer = None
        self._track = None

    def attach_tracer(
        self, tracer, process: str = "engine", thread: str = "batcher"
    ) -> None:
        """Emit a batch-formed instant per coalesced batch."""
        self.tracer = tracer
        self._track = tracer.track(process, thread) if tracer.enabled else None

    def _shed(self, expired: list[Job]) -> None:
        # called after get_batch returns, so outside the queue lock
        if self.on_expired is not None:
            for job in expired:
                self.on_expired(job)

    def next_batch(self, timeout: float | None = 0.1) -> Batch | None:
        """The next coalesced batch, or None when nothing is available.

        Returns None on a timeout with an empty queue, once the queue
        is closed and fully drained (the shutdown signal the dispatcher
        loop watches for), and when the scan found only expired jobs
        (they are shed via ``on_expired``; see
        :func:`~repro.engine.queue.take_batch`).
        """
        jobs, expired = self.queue.get_batch(self.max_batch, timeout=timeout)
        self._shed(expired)
        if not jobs:
            return None
        if self.linger_s > 0 and len(jobs) < self.max_batch:
            key = jobs[0].batch_key()
            deadline = time.monotonic() + self.linger_s
            # lingering must not push the jobs already on board past
            # their own deadlines
            job_deadlines = [
                j.deadline_at for j in jobs if j.deadline_at is not None
            ]
            if job_deadlines:
                deadline = min(deadline, min(job_deadlines))
            while len(jobs) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                more, expired = self.queue.get_batch(
                    self.max_batch - len(jobs), timeout=remaining, key=key
                )
                self._shed(expired)
                if not (more or expired):
                    break
                jobs.extend(more)
        batch = Batch(jobs=jobs)
        if self._track is not None:
            self.tracer.instant(
                self._track, "batch_formed",
                args={
                    "batch_id": batch.batch_id,
                    "size": batch.size,
                    "key": str(batch.key),
                },
            )
        return batch
