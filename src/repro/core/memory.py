"""Device global memory and the single shared memory channel.

Section III-D/III-E and Fig 3/Fig 7: every work-item owns a ``Transfer``
block that bursts 512-bit words to device global memory, but "the
transfers to memory can only occur one at the time on a single memory
channel".  The channel is therefore the shared resource whose
arbitration produces the phase-shifting of Fig 3 and whose burst
economics produce Fig 7.

Timing model of one burst of ``B`` words::

    setup_cycles  +  B * cycles_per_word

``setup_cycles`` covers AXI address-phase/arbitration overhead (paid per
burst — the reason longer bursts approach peak bandwidth in Fig 7);
``cycles_per_word`` is the steady-state beat rate of the 512-bit
interface including DDR inefficiency.  Defaults are calibrated in
:mod:`repro.harness.calibration` to land near the paper's measured
3.6-3.9 GB/s out of the 12.8 GB/s theoretical peak (200 MHz x 64 B).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.fixedpoint import FLOATS_PER_WORD, WORD_BITS

__all__ = [
    "MemoryChannelConfig",
    "BurstRequest",
    "MemoryChannel",
    "GlobalMemory",
]


@dataclass(frozen=True)
class MemoryChannelConfig:
    """Timing parameters of the device-global-memory channel."""

    # defaults calibrated against §IV-E: at the 64-word default burst the
    # channel sustains 2.5 GB / 634 ms ≈ 3.94 GB/s, the paper's measured
    # Config3,4 figure (out of the 12.8 GB/s theoretical peak)
    setup_cycles: int = 80  # per-burst fixed overhead (address + arb)
    cycles_per_word: int = 2  # per-512-bit-beat steady-state cost
    width_bits: int = WORD_BITS

    def __post_init__(self):
        if self.setup_cycles < 0:
            raise ValueError("setup_cycles must be >= 0")
        if self.cycles_per_word < 1:
            raise ValueError("cycles_per_word must be >= 1")

    def burst_cycles(self, words: int) -> int:
        """Total channel occupancy of one burst of ``words`` words."""
        if words <= 0:
            raise ValueError("burst must contain at least one word")
        return self.setup_cycles + words * self.cycles_per_word

    def effective_bandwidth(
        self, burst_words: int, frequency_hz: float
    ) -> float:
        """Steady-state bytes/second at a given burst length (Fig 7 y-axis)."""
        bytes_per_burst = burst_words * self.width_bits // 8
        seconds = self.burst_cycles(burst_words) / frequency_hz
        return bytes_per_burst / seconds

    def peak_bandwidth(self, frequency_hz: float) -> float:
        """Zero-overhead bound: width * f / cycles_per_word."""
        return (self.width_bits // 8) * frequency_hz / self.cycles_per_word


@dataclass
class BurstRequest:
    """One in-flight burst write (the Transfer block's ``memcpy``)."""

    owner: str  # requesting work-item / engine name
    address: int  # destination offset in 512-bit words
    #: payload: a ``(burst words, 16)`` uint32 lane array (what a
    #: Transfer engine submits), or a sequence of 512-bit ints
    words: np.ndarray | list
    submitted_cycle: int = 0
    started_cycle: int | None = None
    completed_cycle: int | None = None
    # absolute completion cycle predicted by MemoryChannel.predict_done
    # (exact under FIFO arbitration — later submissions queue behind)
    _predicted_done: int | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.completed_cycle is not None

    @property
    def queue_latency(self) -> int | None:
        """Cycles spent waiting for the channel grant."""
        if self.started_cycle is None:
            return None
        return self.started_cycle - self.submitted_cycle


@dataclass
class ChannelStats:
    """Aggregate channel accounting for a region run."""

    bursts: int = 0
    words: int = 0
    busy_cycles: int = 0
    idle_cycles: int = 0
    max_queue_depth: int = 0

    @property
    def utilization(self) -> float:
        total = self.busy_cycles + self.idle_cycles
        return self.busy_cycles / total if total else 0.0


class MemoryChannel:
    """Single-port burst-write channel with FIFO arbitration.

    Transfer engines :meth:`submit` bursts and poll ``request.done``.
    The reference cycle loop ticks the channel once per cycle, after
    the processes.  The fast loop never ticks it: the channel keeps
    its own ``clock`` (the first cycle not yet accounted) and ``due``
    (the cycle of its next grant or completion, ``inf`` while idle),
    and the loop advances it with :meth:`skip_cycles` only once a
    grant or completion lies behind the loop's cycle.  Until then the
    lagging channel is indistinguishable from a ticked one: no request
    flips ``done``, the FIFO order and the queue depth that
    :meth:`submit` records are the same, a draining burst's completion
    is the absolute cycle ``due`` whatever the clock, and an idle gap
    is accounted when the next burst is submitted.
    """

    def __init__(
        self,
        config: MemoryChannelConfig | None = None,
        memory: "GlobalMemory | None" = None,
    ):
        self.config = config or MemoryChannelConfig()
        self.memory = memory
        self._queue: deque[BurstRequest] = deque()
        self._current: BurstRequest | None = None
        self.stats = ChannelStats()
        #: first cycle not yet accounted: the channel reflects the
        #: ticks of ``[0, clock)``
        self.clock = 0
        #: cycle of the next grant or completion (``inf`` while idle);
        #: while a burst drains, the cycle in whose tick it completes
        self.due: int | float = float("inf")
        self._completed: int | None = None  # cycle of the last completion

    def rewind(self) -> None:
        """Start the clock over at cycle 0, as a new run does.

        The reference loop's :meth:`tick` takes the cycle from its
        caller, so a channel that served an earlier run (a sequential
        pipeline runs its regions one after another on shared channels)
        simply ticks again from 0.  The fast loop advances a channel from
        its own ``clock``, so it rewinds each channel first: otherwise an
        idle channel would book no idle cycles and grant the new run's
        first burst only at the cycle the last run ended.  A queued burst
        is granted in the first tick; one still draining keeps its
        absolute completion cycle, as under :meth:`tick`.
        """
        self.clock = 0
        self._completed = None
        if self._current is None:
            self.due = 0 if self._queue else float("inf")

    def submit(self, request: BurstRequest) -> BurstRequest:
        """Enqueue a burst; it is granted in FIFO order.

        An idle channel first accounts its idle cycles up to
        ``request.submitted_cycle``, so a channel that lags the loop
        grants the burst at the cycle it was submitted, not earlier.
        """
        if self._current is None and not self._queue:
            gap = request.submitted_cycle - self.clock
            if gap > 0:
                self.stats.idle_cycles += gap
                self.clock = request.submitted_cycle
            self.due = self.clock  # granted in the next tick
        self._queue.append(request)
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._queue) + (1 if self._current else 0)
        )
        return request

    @property
    def busy(self) -> bool:
        return self._current is not None or bool(self._queue)

    def tick(self, cycle: int) -> bool:
        """Advance one cycle; returns True when the channel was busy."""
        self.clock = cycle + 1
        if self._current is None:
            if not self._queue:
                self.stats.idle_cycles += 1
                return False
            self._grant(cycle)
        self.stats.busy_cycles += 1
        if cycle == self.due:
            self._complete(cycle)
        return True

    def _grant(self, cycle: int) -> None:
        """Start draining the head of the queue at ``cycle``."""
        current = self._current = self._queue.popleft()
        current.started_cycle = cycle
        self.due = cycle + self.config.burst_cycles(len(current.words)) - 1

    def _complete(self, cycle: int) -> None:
        """Finish the draining burst in ``cycle``'s tick."""
        req = self._current
        req.completed_cycle = cycle
        if self.memory is not None:
            self.memory.write_burst(req.address, req.words)
        self.stats.bursts += 1
        self.stats.words += len(req.words)
        self._current = None
        self._completed = cycle
        self.due = cycle + 1 if self._queue else float("inf")

    # -- cycle-skipping fast path --------------------------------------------------

    def next_event(self, cycle: int) -> int | float:
        """First future cycle at which a process could observe a change.

        The only channel state processes poll is ``request.done``, which
        flips in the tick that drains the last beat and is observed one
        cycle later — so the event is ``completion + 1`` of whichever
        burst finishes first.  A channel that went idle with that
        completion names ``cycle`` itself, the cycle it first reads idle
        (a traced run records the end of its busy window there); one
        idle for longer never self-generates an event (``inf``).  Exact
        because arbitration is FIFO: the loop asks only between cycles,
        before jumping a window in which every process is parked, so no
        submission lands inside it, and later ones queue behind.
        ``cycle`` is the next cycle to tick; no grant or completion may
        lie before it.
        """
        if self._current is not None:
            return self.due + 1
        if self._queue:
            # grant next tick, drain, observe one cycle after completion
            return cycle + self.config.burst_cycles(len(self._queue[0].words))
        if self._completed == cycle - 1:
            return cycle
        return float("inf")

    def predict_done(self, request: BurstRequest, cycle: int) -> int | None:
        """Absolute cycle in whose tick ``request`` finishes draining.

        Walks the FIFO queue once and caches the (immutable) prediction
        on every request it passes, so repeated polls are O(1).  Returns
        None for a request this channel does not hold.  ``cycle`` is
        the next cycle to tick: ask only between cycles, with no grant
        or completion before ``cycle``, since a cached answer is never
        recomputed.  A queued burst behind an idle channel is granted
        at ``cycle``, not at the channel's own ``clock``, so a channel
        driven by hand answers for the cycle its caller names.
        """
        if request._predicted_done is not None:
            return request._predicted_done
        prev_end = cycle - 1
        if self._current is not None:
            prev_end = self._current._predicted_done = self.due
        for queued in self._queue:
            prev_end += self.config.burst_cycles(len(queued.words))
            queued._predicted_done = prev_end
        return request._predicted_done

    def skip_cycles(self, cycle: int, count: int) -> None:
        """Advance ``count`` cycles in one step (no new submissions).

        Equivalent to ``count`` calls of :meth:`tick` starting at
        ``cycle``, in O(completed bursts) instead of O(cycles): grants,
        beat accounting, burst completions and memory writes land
        exactly as the reference loop would place them.  The fast loop
        routes every advance through here, from the channel's
        ``clock``: to catch up once a grant or completion lies behind
        the loop's cycle, and through a window in which every process
        is parked.
        """
        at = cycle
        end = cycle + count
        while at < end:
            if self._current is None:
                if not self._queue:
                    self.stats.idle_cycles += end - at
                    break
                self._grant(at)
            stop = min(self.due + 1, end)
            self.stats.busy_cycles += stop - at
            at = stop
            if at > self.due:
                self._complete(self.due)
        self.clock = end

    def __repr__(self) -> str:
        return (
            f"MemoryChannel(queue={len(self._queue)}, "
            f"current={self._current and self._current.owner})"
        )


class GlobalMemory:
    """Device global memory addressed in 512-bit words.

    Backing store is a flat ``uint32`` numpy array (16 lanes per word),
    so readbacks are views, not copies.  Models the single device-level
    buffer of Section III-E-2: every work-item writes into the same
    allocation at an offset derived from its work-item id.
    """

    LANES = FLOATS_PER_WORD

    def __init__(self, size_words: int):
        if size_words < 1:
            raise ValueError("memory must hold at least one word")
        self.size_words = size_words
        self._data = np.zeros(size_words * self.LANES, dtype=np.uint32)
        self.words_written = 0

    def write_word(self, address: int, word) -> None:
        """Store one 512-bit word (an int or ``ApUInt(512)``) at a
        word-aligned address."""
        self.write_burst(address, (word,))

    def write_burst(self, address: int, words) -> None:
        """Store consecutive words starting at ``address`` (the memcpy).

        ``words`` is a ``(n, 16)`` uint32 lane array, lane 0 the least
        significant 32 bits of its word, or a sequence of 512-bit ints,
        which is split into that array first (lane ``i`` of a word is
        bits ``[32*i, 32*i+32)``, its little-endian uint32
        serialization).  The whole range is checked before anything is
        stored, so a burst that does not fit writes nothing.
        """
        if not isinstance(words, np.ndarray):
            raw = b"".join(int(word).to_bytes(4 * self.LANES, "little") for word in words)
            words = np.frombuffer(raw, dtype="<u4").reshape(-1, self.LANES)
        end = address + len(words)
        if address < 0 or end > self.size_words:
            raise IndexError(
                f"words [{address}, {end}) out of range [0, {self.size_words})"
            )
        self._data[address * self.LANES : end * self.LANES] = words.reshape(-1)
        self.words_written += len(words)

    def read_floats(self, address_words: int, count: int) -> np.ndarray:
        """Read back ``count`` float32 values starting at a word address."""
        base = address_words * self.LANES
        if address_words < 0 or count < 0 or base + count > self._data.size:
            raise IndexError(
                f"floats [{base}, {base + count}) out of range [0, {self._data.size})"
            )
        return self._data[base : base + count].view(np.float32).copy()

    def as_float_array(self) -> np.ndarray:
        """Whole memory viewed as float32 (host-side readback)."""
        return self._data.view(np.float32).copy()


# ---------------------------------------------------------------------------
# analytic fast-forward model (validated against the cycle simulation)
# ---------------------------------------------------------------------------


def transfer_only_cycles(
    values_per_item: int,
    n_work_items: int,
    burst_words: int,
    config: MemoryChannelConfig | None = None,
    pack_cycles_per_value: int = 1,
) -> int:
    """Closed-form cycle count of the transfers-only experiment (Fig 7).

    Each engine packs ``burst_words * 16`` values per burst (one value
    per cycle), then issues the burst.  In steady state the runtime is
    the larger of the two bounds:

    * channel bound — total bursts serialized on the single channel,
    * engine bound — one engine's pack+burst round trips (bursts from
      the other engines hide inside the pack phase).

    The form is exact when either bound dominates by ~2x; in the mixed
    regime the FIFO stagger between engines adds a small extra cost only
    the cycle simulation captures (tested in tests/core/test_memory.py).
    """
    cfg = config or MemoryChannelConfig()
    values_per_burst = burst_words * FLOATS_PER_WORD
    bursts_per_item = -(-values_per_item // values_per_burst)
    burst_cost = cfg.burst_cycles(burst_words)
    pack_cost = values_per_burst * pack_cycles_per_value
    channel_bound = n_work_items * bursts_per_item * burst_cost
    engine_bound = bursts_per_item * (pack_cost + burst_cost)
    # the first pack of every engine cannot overlap anything
    warmup = pack_cost
    return max(channel_bound + warmup, engine_bound)
