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
from typing import Hashable

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


def take_batch(
    items: deque, max_size: int, now: float, key: Hashable | None = None
) -> tuple[list, list]:
    """Pop up to ``max_size`` items sharing one batch key; the batch rule.

    The serving form of §III-E buffer combining, shared by the live
    queue (:meth:`BoundedJobQueue.get_batch`) and the virtual tier's
    shards (:mod:`repro.serve.loadgen`).  Items are scanned in FIFO
    order.  An item whose ``expired(now)`` is true is popped into the
    second list: it never fixes the key and never takes a slot.  The
    first live item fixes the key unless ``key`` is given; items with a
    different key go back to the front of ``items`` in their original
    order (an expired one among them waits for a scan that reaches it).
    Returns ``(batch, expired)``.
    """
    batch: list = []
    expired: list = []
    kept: list = []
    while items and len(batch) < max_size:
        item = items.popleft()
        if key is not None and item.batch_key() != key:
            kept.append(item)
        elif item.expired(now):
            expired.append(item)
        else:
            if key is None:
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
            self._not_empty.notify()

    def close(self) -> None:
        """Stop admitting; pending jobs remain readable (graceful drain).

        Both conditions are notified so that producers blocked in
        :meth:`put` raise :class:`JobQueueClosed` promptly and
        consumers blocked in :meth:`get_batch` return immediately —
        nobody hangs until their timeout.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    # -- consumer side ----------------------------------------------------------

    def get_batch(
        self,
        max_size: int = 1,
        timeout: float | None = None,
        key: Hashable | None = None,
    ) -> tuple[list[Job], list[Job]]:
        """Pop a batch of *compatible* jobs (equal :meth:`Job.batch_key`).

        Applies :func:`take_batch` at ``time.monotonic()`` and returns
        its ``(batch, expired)``: up to ``max_size`` live jobs sharing
        one key, in FIFO order — the serving analogue of §III-E
        device-level buffer combining — plus the deadline-expired jobs
        the scan popped, which the caller sheds.  With ``key`` only
        jobs of that key are taken (the linger path: top up an open
        batch without disturbing other work).

        Waits up to ``timeout`` for something to take.  Returns
        ``([], [])`` once the queue is closed and drained, or when the
        timeout elapses (an empty poll is tallied as a read stall,
        mirroring ``Stream.can_read``).
        """
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        with self._not_empty:
            batch, expired = take_batch(
                self._fifo, max_size, time.monotonic(), key
            )
            if not (batch or expired or self._closed):
                self.read_stalls += 1
                # monotonic deadline (the same pattern as put): each
                # spurious wakeup, or one for a job of another key,
                # resumes the *remaining* wait instead of restarting
                # the full timeout or returning a premature empty poll
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while not (batch or expired or self._closed):
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        break
                    self._not_empty.wait(remaining)
                    batch, expired = take_batch(
                        self._fifo, max_size, time.monotonic(), key
                    )
            if batch or expired:
                self.total_reads += len(batch) + len(expired)
                self._emit_occupancy()
                self._not_full.notify_all()
            return batch, expired
