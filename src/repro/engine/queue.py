"""Bounded job queue with backpressure — ``hls::stream`` at the serving layer.

Section III-A introduces blocking bounded FIFOs between decoupled
pipeline stages: a full stream back-pressures the producer, an empty one
stalls the consumer.  The engine admits jobs through the same contract.
A full queue either *blocks* the submitting thread (the hardware
semantics) or *sheds* it with the typed :class:`JobQueueFull` error (the
serving-layer policy a load balancer needs), and the accounting — high
water, stall tallies — lands in the same :class:`repro.core.FifoStats`
dataclass the hardware streams report, so FIFO depth sizing analysis
works identically at both layers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.core.stream import FifoStats
from repro.engine.jobs import Job

__all__ = [
    "BoundedJobQueue",
    "EngineError",
    "JobQueueClosed",
    "JobQueueFull",
    "SubmitTimeout",
    "take_batch",
]


def take_batch(items: deque, max_size: int, now: float) -> tuple[list, list]:
    """Pop up to ``max_size`` items sharing one batch key; the batch rule.

    The serving form of §III-E buffer combining, applied by
    :class:`~repro.engine.shard.ShardCore` when a worker takes a batch,
    in the live engine and in the virtual tier's shards alike.  Items
    are scanned in FIFO order.  An item whose ``expired(now)`` is true
    is popped into the second list: it never fixes the key and never
    takes a slot.  The first live item fixes the key; items with a
    different key go back to the front of ``items`` in their original
    order (an expired one among them waits for a scan that reaches it).
    Returns ``(batch, expired)``.
    """
    batch: list = []
    expired: list = []
    kept: list = []
    key = None
    while items and len(batch) < max_size:
        item = items.popleft()
        if batch and item.batch_key() != key:
            kept.append(item)
        elif item.expired(now):
            expired.append(item)
        else:
            if not batch:
                key = item.batch_key()
            batch.append(item)
    items.extendleft(reversed(kept))
    return batch, expired


class EngineError(RuntimeError):
    """Base class of all typed engine errors."""


class JobQueueFull(EngineError):
    """Admission shed: the bounded queue was full under the shed policy."""


class JobQueueClosed(EngineError):
    """Submit after shutdown began (the queue no longer admits work)."""


class SubmitTimeout(EngineError):
    """Blocking admission exceeded its timeout while the queue was full."""


class BoundedJobQueue:
    """Thread-safe bounded FIFO of :class:`Job` entries.

    Parameters
    ----------
    depth:
        Capacity; submissions beyond it experience backpressure.
    name:
        Identifier in stats and error messages.
    """

    def __init__(self, depth: int = 64, name: str = "job_queue"):
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._fifo: deque[Job] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # accounting (FifoStats vocabulary)
        self.total_writes = 0
        self.total_reads = 0
        self.write_stalls = 0
        self.read_stalls = 0
        self.high_water = 0
        # observability (attach_tracer wires these)
        self.tracer = None
        self._track = None

    def attach_tracer(
        self, tracer, process: str = "engine", thread: str = "admission"
    ) -> None:
        """Emit occupancy counters and shed instants through ``tracer``."""
        self.tracer = tracer
        self._track = tracer.track(process, thread) if tracer.enabled else None

    def _emit_occupancy(self) -> None:
        if self._track is not None:
            self.tracer.counter(
                self._track, "queue_occupancy",
                {"occupancy": len(self._fifo)},
            )

    # -- state ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._fifo)

    @property
    def occupancy(self) -> int:
        return len(self)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def stats(self) -> FifoStats:
        """Snapshot in the shared FIFO-accounting vocabulary."""
        with self._lock:
            return FifoStats(
                name=self.name,
                depth=self.depth,
                occupancy=len(self._fifo),
                total_writes=self.total_writes,
                total_reads=self.total_reads,
                write_stalls=self.write_stalls,
                read_stalls=self.read_stalls,
                high_water=self.high_water,
            )

    # -- producer side ----------------------------------------------------------

    def put(
        self,
        job: Job,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Admit one job.

        With ``block=True`` a full queue stalls the caller until space
        frees (raising :class:`SubmitTimeout` after ``timeout`` seconds);
        with ``block=False`` it sheds immediately with
        :class:`JobQueueFull`.  Either way the stall is tallied — that is
        the backpressure signal queue-depth sizing reads.
        """
        with self._not_full:
            if self._closed:
                raise JobQueueClosed(f"queue {self.name!r} is closed")
            if len(self._fifo) >= self.depth:
                self.write_stalls += 1
                if not block:
                    if self._track is not None:
                        self.tracer.instant(
                            self._track, "shed",
                            args={"job_id": job.job_id},
                        )
                    raise JobQueueFull(
                        f"queue {self.name!r} full (depth={self.depth}); "
                        "admission shed"
                    )
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while len(self._fifo) >= self.depth:
                    # closed wins over an expired timeout: a submitter
                    # racing shutdown sees JobQueueClosed, never a
                    # SubmitTimeout that misreports the queue's state
                    if self._closed:
                        raise JobQueueClosed(
                            f"queue {self.name!r} is closed"
                        )
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise SubmitTimeout(
                            f"queue {self.name!r} stayed full for "
                            f"{timeout:.3f}s"
                        )
                    self._not_full.wait(remaining)
                if self._closed:
                    raise JobQueueClosed(f"queue {self.name!r} is closed")
            self._fifo.append(job)
            self.total_writes += 1
            if len(self._fifo) > self.high_water:
                self.high_water = len(self._fifo)
            self._emit_occupancy()
            # every waiter re-decides: a worker may wait for a batch it
            # is not the one to take
            self._not_empty.notify_all()

    def close(self) -> None:
        """Stop admitting; pending jobs remain readable (graceful drain).

        Both conditions are notified so that producers blocked in
        :meth:`put` raise :class:`JobQueueClosed` promptly and every
        consumer blocked in :meth:`wait` re-runs its ``pick`` at once —
        nobody hangs until their timeout.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    # -- consumer side ----------------------------------------------------------

    def wait(
        self,
        pick: Callable[[deque, float, bool], tuple[object, float | None]],
        timeout: float | None = None,
    ):
        """Run ``pick`` under the queue lock until it returns a value.

        ``pick(fifo, now, closed)`` reads, and may pop, the FIFO deque
        itself at ``now = time.monotonic()`` and returns ``(value,
        wake_at)``.  A value other than None ends the wait and is
        returned; every other waiter is woken, since what it decided on
        may have changed.  Otherwise the caller sleeps until a put, a
        close or another waiter's value wakes it, until ``wake_at``, or
        until ``timeout`` runs out (then None).  Each wakeup re-runs
        ``pick``, and ``timeout`` is one monotonic deadline that
        wakeups do not restart.  This is the one wait of the queue's
        consumers: the engine's workers take their batches through it
        (see :class:`~repro.engine.shard.ShardCore`).

        The jobs ``pick`` pops count as reads and free space for
        blocked submitters; a wait that found nothing at first is
        tallied as one read stall, mirroring ``Stream.can_read``.
        """
        with self._not_empty:
            deadline = None if timeout is None else time.monotonic() + timeout
            stalled = False
            while True:
                now = time.monotonic()
                before = len(self._fifo)
                value, wake_at = pick(self._fifo, now, self._closed)
                taken = before - len(self._fifo)
                if taken:
                    self.total_reads += taken
                    self._emit_occupancy()
                    self._not_full.notify_all()
                if value is not None:
                    self._not_empty.notify_all()
                    return value
                if not stalled:
                    stalled = True
                    self.read_stalls += 1
                if deadline is not None:
                    if now >= deadline:
                        return None
                    wake_at = deadline if wake_at is None else min(wake_at, deadline)
                self._not_empty.wait(None if wake_at is None else wake_at - now)

    def get_batch(
        self, max_size: int = 1, timeout: float | None = None
    ) -> tuple[list[Job], list[Job]]:
        """Pop a batch of *compatible* jobs (equal :meth:`Job.batch_key`).

        Applies :func:`take_batch` at ``time.monotonic()`` and returns
        its ``(batch, expired)``: up to ``max_size`` live jobs sharing
        one key, in FIFO order — the serving analogue of §III-E
        device-level buffer combining — plus the deadline-expired jobs
        the scan popped, which the caller sheds.

        Waits (:meth:`wait`) up to ``timeout`` for something to take.
        Returns ``([], [])`` once the queue is closed and drained, or
        when the timeout elapses.
        """
        if max_size < 1:
            raise ValueError("max_size must be >= 1")

        def pick(fifo, now, closed):
            batch, expired = take_batch(fifo, max_size, now)
            return ((batch, expired) if batch or expired or closed else None), None

        return self.wait(pick, timeout) or ([], [])
