"""Software model of the Vivado HLS ``hls::stream`` interface.

Section III-A: "we need the hls::stream interface [12] to introduce
blocking communication between generation (GammaRNG) and the
corresponding Transfer function".  An ``hls::stream`` is a bounded FIFO
with blocking semantics on both ends: a full stream back-pressures the
producer pipeline, an empty one stalls the consumer.

The cycle-level co-simulation (:mod:`repro.core.dataflow`) never calls
the blocking operations directly — processes poll :meth:`can_read` /
:meth:`can_write` and stall for a cycle when the FIFO refuses, exactly
as the synthesized pipeline would.  The counters kept here (high-water
mark, stall tallies) feed the FIFO-depth sizing analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["FifoStats", "Stream", "StreamClosed", "StreamEmpty", "StreamFull"]


@dataclass(frozen=True)
class FifoStats:
    """Occupancy accounting snapshot of one bounded FIFO.

    Shared vocabulary between the hardware-level :class:`Stream` and the
    serving-level job queue (:class:`repro.engine.BoundedJobQueue`), so
    the same depth-sizing analysis (high-water mark vs capacity, stall
    tallies) applies at both layers.
    """

    name: str
    depth: int
    occupancy: int
    total_writes: int
    total_reads: int
    write_stalls: int  # producer found the FIFO full
    read_stalls: int  # consumer found the FIFO empty
    high_water: int

    @property
    def headroom(self) -> int:
        """Capacity never used — a sizing margin candidate."""
        return self.depth - self.high_water

    @property
    def utilization(self) -> float:
        """High-water mark as a fraction of capacity."""
        return self.high_water / self.depth

    def to_dict(self) -> dict:
        """Plain-dict form (JSON output, metrics snapshots)."""
        return {
            "name": self.name,
            "depth": self.depth,
            "occupancy": self.occupancy,
            "total_writes": self.total_writes,
            "total_reads": self.total_reads,
            "write_stalls": self.write_stalls,
            "read_stalls": self.read_stalls,
            "high_water": self.high_water,
            "headroom": self.headroom,
            "utilization": self.utilization,
        }


class StreamFull(RuntimeError):
    """Write attempted on a full stream (producer should have stalled)."""


class StreamEmpty(RuntimeError):
    """Read attempted on an empty stream (consumer should have stalled)."""


class StreamClosed(RuntimeError):
    """Write attempted on a stream whose producer declared completion."""


class Stream:
    """Bounded blocking FIFO with occupancy accounting.

    Parameters
    ----------
    name:
        Identifier used in dataflow wiring and error messages.
    depth:
        FIFO capacity; HLS defaults streams to a depth of 2 unless a
        ``#pragma HLS stream depth=N`` widens them.
    """

    def __init__(self, name: str, depth: int = 2):
        if depth < 1:
            raise ValueError(f"stream depth must be >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._fifo: deque[Any] = deque()
        self._closed = False
        # accounting
        self.total_writes = 0
        self.total_reads = 0
        self.write_stalls = 0  # producer found the FIFO full
        self.read_stalls = 0  # consumer found the FIFO empty
        self.high_water = 0
        # last cycle a stall was counted (poll-idempotence stamps)
        self._last_write_stall_cycle: int | None = None
        self._last_read_stall_cycle: int | None = None
        # wake slots, one per stream end: the cycle loop's fast path
        # parks a process blocked on this stream and leaves a callable
        # here, run once at the next event that can unblock that end
        self._consumer_wake = None  # run by write() and close()
        self._producer_wake = None  # run by read()

    # -- state ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    def empty(self) -> bool:
        return not self._fifo

    def full(self) -> bool:
        return len(self._fifo) >= self.depth

    @property
    def closed(self) -> bool:
        return self._closed

    def drained(self) -> bool:
        """True once the producer closed the stream and the FIFO is empty."""
        return self._closed and not self._fifo

    @property
    def stats(self) -> FifoStats:
        """Accounting snapshot in the shared :class:`FifoStats` vocabulary."""
        return FifoStats(
            name=self.name,
            depth=self.depth,
            occupancy=self.occupancy,
            total_writes=self.total_writes,
            total_reads=self.total_reads,
            write_stalls=self.write_stalls,
            read_stalls=self.read_stalls,
            high_water=self.high_water,
        )

    # -- non-blocking poll interface (used by the cycle simulation) ---------------

    def can_write(self, cycle: int | None = None) -> bool:
        """Poll for write availability, counting a stall when full.

        The stall tallies feed the FIFO-sizing analysis and the stall
        attribution, both of which consume them as *per-cycle* counts.
        Passing the current ``cycle`` makes the counter poll-idempotent:
        a process polling twice in one tick counts a single stalled
        cycle.  Without a cycle (legacy callers) every failing poll
        counts, so single-poll discipline is on the caller.
        """
        if self.full():
            if cycle is None or cycle != self._last_write_stall_cycle:
                self.write_stalls += 1
                self._last_write_stall_cycle = cycle
            return False
        return True

    def can_read(self, cycle: int | None = None) -> bool:
        """Poll for read availability, counting a stall when empty.

        Same poll-idempotence contract as :meth:`can_write`.
        """
        if self.empty():
            if cycle is None or cycle != self._last_read_stall_cycle:
                self.read_stalls += 1
                self._last_read_stall_cycle = cycle
            return False
        return True

    # -- bulk stall crediting (cycle-skipping fast path) ---------------------------

    def credit_write_stalls(self, count: int, last_cycle: int | None = None) -> None:
        """Credit ``count`` write-stalled cycles in one step.

        Used by :class:`~repro.core.dataflow.DataflowRegion`'s fast path
        when a producer sits blocked on this full FIFO for a known
        window — equivalent to one failing :meth:`can_write` poll per
        skipped cycle.  ``last_cycle`` stamps the final skipped cycle so
        idempotence stays correct across the skip boundary.
        """
        self.write_stalls += count
        if last_cycle is not None:
            self._last_write_stall_cycle = last_cycle

    def credit_read_stalls(self, count: int, last_cycle: int | None = None) -> None:
        """Credit ``count`` read-stalled cycles in one step (see
        :meth:`credit_write_stalls`)."""
        self.read_stalls += count
        if last_cycle is not None:
            self._last_read_stall_cycle = last_cycle

    # -- data plane ----------------------------------------------------------------

    def write(self, value: Any) -> None:
        """Push one token; raises :class:`StreamFull` when the FIFO is full.

        The hardware stream *blocks* instead — processes must poll
        :meth:`can_write` first, so reaching the exception indicates a
        scheduling bug, not backpressure.
        """
        if self._closed:
            raise StreamClosed(f"stream {self.name!r} is closed")
        if self.full():
            raise StreamFull(
                f"stream {self.name!r} full (depth={self.depth}); "
                "producer must stall on can_write()"
            )
        self._fifo.append(value)
        self.total_writes += 1
        if len(self._fifo) > self.high_water:
            self.high_water = len(self._fifo)
        if self._consumer_wake is not None:
            wake, self._consumer_wake = self._consumer_wake, None
            wake()

    def read(self) -> Any:
        """Pop one token; raises :class:`StreamEmpty` on an empty FIFO."""
        if not self._fifo:
            raise StreamEmpty(
                f"stream {self.name!r} empty; consumer must stall on can_read()"
            )
        self.total_reads += 1
        value = self._fifo.popleft()
        if self._producer_wake is not None:
            wake, self._producer_wake = self._producer_wake, None
            wake()
        return value

    def peek(self) -> Any:
        """Front token without consuming it."""
        if not self._fifo:
            raise StreamEmpty(f"stream {self.name!r} empty; cannot peek")
        return self._fifo[0]

    def close(self) -> None:
        """Producer-side end-of-stream marker (no hardware equivalent —
        used by the simulation to let consumers terminate cleanly)."""
        self._closed = True
        if self._consumer_wake is not None:
            wake, self._consumer_wake = self._consumer_wake, None
            wake()

    def drain(self) -> Iterable[Any]:
        """Read out all remaining tokens (test/debug helper)."""
        while self._fifo:
            yield self.read()

    def __repr__(self) -> str:
        return (
            f"Stream({self.name!r}, depth={self.depth}, "
            f"occupancy={self.occupancy}, closed={self._closed})"
        )
