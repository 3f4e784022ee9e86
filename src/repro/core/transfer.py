"""The per-work-item ``Transfer`` block (Listing 4).

Each work-item pairs its ``GammaRNG`` generator with a Transfer engine
that (a) reads validated gamma RNs from the blocking stream one per
cycle, (b) packs them 16-to-a-word into ``ap_uint<512>`` registers
(``g512``), (c) collects ``LTRANSF`` words in a local ``transfBuf``, and
(d) flushes the buffer to device global memory as one burst (``memcpy``)
at an offset derived from the work-item id (device-level buffer
combining, Section III-E-2).  The model keeps a burst's raw values and
packs them once, when the burst is submitted, into one ``(LTRANSF, 16)``
uint32 array of their little-endian float32 bits: row ``w`` is word
``w`` and lane 0 its least significant 32 bits, the words
:func:`~repro.fixedpoint.pack_floats` builds, without an ``ApUInt`` per
word.  Packing is combinational, so it costs no cycle.

The engine is busy packing for ``16 * LTRANSF`` cycles per burst, during
which the *other* work-items' bursts drain on the shared channel — the
interleaving of Fig 3.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.memory import BurstRequest, MemoryChannel
from repro.core.process import NO_SELF_EVENT, Process
from repro.core.stream import Stream
from repro.fixedpoint import FLOATS_PER_WORD

__all__ = ["TransferEngine", "DummySource"]


class _State(enum.Enum):
    PACK = "pack"
    WAIT_BURST = "wait_burst"
    DONE = "done"


class TransferEngine(Process):
    """Cycle-level model of Listing 4.

    Parameters
    ----------
    name, wid:
        Engine identity; ``wid`` selects the memory offset, mirroring
        ``offset = blockOffset * wid``.
    source:
        The gamma stream from the paired ``GammaRNG`` process.
    channel:
        The shared :class:`~repro.core.memory.MemoryChannel`.
    burst_words:
        ``LTRANSF`` — 512-bit words per burst.
    bursts_per_sector:
        ``limitRep`` — fixed trip count of ``REPLOOP``.
    sectors:
        ``limitSec`` trip count of ``SECLOOP``.
    block_offset:
        Words of device memory reserved per work-item.
    dependence_false:
        Models Listing 4's ``#pragma HLS DEPENDENCE variable=transfBuf
        false``: the tool cannot prove the transfBuf write of iteration
        i and the read of iteration i+1 touch different entries, so
        without the pragma the packing loop schedules at II=2.  True
        (the paper's design) keeps TLOOP at II=1.
    """

    #: TLOOP initiation interval without the DEPENDENCE-false pragma
    NAIVE_PACK_II = 2

    def __init__(
        self,
        name: str,
        wid: int,
        source: Stream,
        channel: MemoryChannel,
        burst_words: int,
        bursts_per_sector: int,
        sectors: int,
        block_offset: int,
        dependence_false: bool = True,
    ):
        super().__init__(name)
        if burst_words < 1:
            raise ValueError("burst_words must be >= 1")
        if bursts_per_sector < 1 or sectors < 1:
            raise ValueError("bursts_per_sector and sectors must be >= 1")
        needed = sectors * bursts_per_sector * burst_words
        if block_offset < needed:
            raise ValueError(
                f"block_offset {block_offset} cannot hold "
                f"{needed} words for work-item {wid}"
            )
        self.wid = wid
        self.source = source
        self.channel = channel
        self.burst_words = burst_words
        self.bursts_per_sector = bursts_per_sector
        self.sectors = sectors
        self.values_per_burst = burst_words * FLOATS_PER_WORD
        self._values: list[float] = []  # this burst's values (transfBuf)
        self._offset = block_offset * wid
        self._burst_index = 0  # completed bursts overall
        self._total_bursts = sectors * bursts_per_sector
        self._state = _State.PACK
        self._pending: BurstRequest | None = None
        self.dependence_false = dependence_false
        self._pack_stall = 0
        # fast-path hints describe THIS tick implementation; a subclass
        # overriding tick() falls back to the reference loop
        self._hintable = type(self).tick is TransferEngine.tick

    def inputs(self) -> tuple[Stream, ...]:
        return (self.source,)

    def done(self) -> bool:
        return self._state is _State.DONE

    def stall_reason(self) -> str | None:
        if self._state is _State.WAIT_BURST:
            return "memory_channel"  # waiting for the shared-channel grant
        if self._pack_stall > 0:
            return "pipeline"  # TLOOP II bubble (DEPENDENCE-false ablation)
        return None

    def next_event(self, cycle: int) -> int | float | None:
        if not self._hintable:
            return None
        if self._state is _State.WAIT_BURST:
            pending = self._pending
            if pending is None or pending.done:
                return None  # grant bookkeeping happens next tick
            done_cycle = self.channel.predict_done(pending, cycle)
            if done_cycle is None:
                return None
            return done_cycle + 1  # completion observed one cycle later
        if self._state is _State.PACK:
            if self._pack_stall > 0:
                return cycle + self._pack_stall  # deterministic II bubble
            if self.source.empty():
                return NO_SELF_EVENT  # starved until the producer acts
        return None

    def skip_cycles(self, cycle: int, count: int) -> None:
        if self._state is _State.WAIT_BURST:
            self.stats.cycles += count
            self.stats.stall_cycles += count
            return
        if self._pack_stall > 0:
            self._pack_stall -= count
            self.stats.cycles += count
            self.stats.pipeline_cycles += count
            return
        # starved PACK: one failing can_read() poll per skipped cycle
        self.source.credit_read_stalls(count, cycle + count - 1)
        self.stats.cycles += count
        self.stats.stall_cycles += count

    def _ingest(self, value: float) -> float:
        """Observe/transform one value on its way into the packer.

        The hook subclasses override instead of :meth:`tick`: packing a
        value is combinational, so a subclass folding it into a running
        aggregate (``repro.core.pricing.AggregatingTransferEngine``)
        costs no extra cycles and — crucially — keeps the inherited
        ``tick`` identity, so the fast-path hints stay valid
        (``_hintable`` guards on ``tick``, not on this hook).
        """
        return value

    def tick(self, cycle: int) -> bool:
        if self._state is _State.WAIT_BURST:
            if self._pending is not None and self._pending.done:
                self._pending = None
                self._burst_index += 1
                if self._burst_index >= self._total_bursts:
                    self._state = _State.DONE
                else:
                    self._state = _State.PACK
                # grant/advance bookkeeping counts as progress
                return self._account(True)
            return self._account(False)

        # PACK state: one stream read per cycle (TLOOP at II=1 with the
        # DEPENDENCE-false pragma; II=2 without it)
        if self._pack_stall > 0:
            self._pack_stall -= 1
            return self._account_bubble()  # II bubble: time passes by design
        if not self.source.can_read(cycle):
            return self._account(False)
        value = self._ingest(self.source.read())
        if not self.dependence_false:
            self._pack_stall = self.NAIVE_PACK_II - 1
        self.stats.iterations += 1
        values = self._values
        values.append(value)
        if len(values) == self.values_per_burst:
            self._submit(cycle)
        return self._account(True)

    def _submit(self, cycle: int) -> BurstRequest:
        """Pack this burst's values into float32 lanes and submit them at
        ``cycle``."""
        lanes = np.array(self._values, "<f4").view("<u4")
        request = BurstRequest(
            owner=self.name,
            address=self._offset,
            words=lanes.reshape(self.burst_words, FLOATS_PER_WORD),
            submitted_cycle=cycle,
        )
        self.channel.submit(request)
        self._pending = request
        self._offset += self.burst_words
        self._values = []
        self._state = _State.WAIT_BURST
        return request

    @property
    def bursts_completed(self) -> int:
        return self._burst_index


class DummySource(Process):
    """Produces one dummy float per cycle — the transfers-only workload.

    Fig 7 is measured "if we now remove the computations from our kernel,
    leaving only the transfers to device memory ... (using dummy data)".
    """

    def __init__(self, name: str, sink: Stream, count: int, value: float = 1.0):
        super().__init__(name)
        if count < 0:
            raise ValueError("count must be >= 0")
        self.sink = sink
        self.remaining = count
        self.value = value
        self._hintable = type(self).tick is DummySource.tick

    def outputs(self) -> tuple[Stream, ...]:
        return (self.sink,)

    def done(self) -> bool:
        return self.remaining == 0

    def next_event(self, cycle: int) -> int | float | None:
        if not self._hintable:
            return None
        if self.remaining and self.sink.full():
            return NO_SELF_EVENT  # backpressured until the consumer reads
        return None

    def skip_cycles(self, cycle: int, count: int) -> None:
        # blocked on a full sink: one failing can_write() poll per cycle
        self.sink.credit_write_stalls(count, cycle + count - 1)
        self.stats.cycles += count
        self.stats.stall_cycles += count

    def tick(self, cycle: int) -> bool:
        if self.remaining == 0:
            return self._account(False)
        if not self.sink.can_write(cycle):
            return self._account(False)
        self.sink.write(self.value)
        self.remaining -= 1
        self.stats.iterations += 1
        return self._account(True)
