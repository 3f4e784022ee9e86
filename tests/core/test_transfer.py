"""Tests for the Transfer engine (Listing 4)."""

import numpy as np
import pytest

from repro.core import (
    DataflowRegion,
    GlobalMemory,
    MemoryChannel,
    MemoryChannelConfig,
    Stream,
    TransferEngine,
    DummySource,
)
from repro.fixedpoint import FLOATS_PER_WORD, pack_floats


def _run_engine(n_values, burst_words, sectors=1, channel_cfg=None, wid=0,
                n_items=1):
    """Drive one dummy-source → engine pair and return (memory, report)."""
    values_per_burst = burst_words * FLOATS_PER_WORD
    bursts = n_values // values_per_burst
    words_per_item = bursts * burst_words * sectors
    memory = GlobalMemory(words_per_item * max(n_items, wid + 1))
    channel = MemoryChannel(channel_cfg or MemoryChannelConfig(), memory)
    region = DataflowRegion("t")
    region.attach_memory_channel(channel)
    stream = Stream("s", depth=8)

    class SeqSource(DummySource):
        def __init__(self, name, sink, count):
            super().__init__(name, sink, count)
            self._i = 0

        def tick(self, cycle):
            if self.remaining and self.sink.can_write():
                self.sink.write(float(self._i))
                self._i += 1
                self.remaining -= 1
                return self._account(True)
            return self._account(False)

    region.add(SeqSource("src", stream, n_values * sectors))
    engine = TransferEngine(
        "eng", wid, stream, channel,
        burst_words=burst_words,
        bursts_per_sector=bursts,
        sectors=sectors,
        block_offset=words_per_item,
    )
    region.add(engine)
    report = region.run()
    return memory, report, engine


class TestTransferEngine:
    def test_data_lands_in_memory_in_order(self):
        mem, _, _ = _run_engine(n_values=128, burst_words=2)
        np.testing.assert_array_equal(
            mem.read_floats(0, 128), np.arange(128, dtype=np.float32)
        )

    def test_wid_offset(self):
        mem, _, _ = _run_engine(n_values=64, burst_words=2, wid=1, n_items=2)
        # work-item 1 writes at blockOffset * 1
        block_words = 64 // FLOATS_PER_WORD
        np.testing.assert_array_equal(
            mem.read_floats(block_words, 64), np.arange(64, dtype=np.float32)
        )
        assert np.all(mem.read_floats(0, 64) == 0.0)

    def test_multi_sector_contiguous(self):
        mem, _, _ = _run_engine(n_values=64, burst_words=2, sectors=3)
        np.testing.assert_array_equal(
            mem.read_floats(0, 192), np.arange(192, dtype=np.float32)
        )

    def test_burst_count(self):
        _, _, engine = _run_engine(n_values=256, burst_words=4)
        assert engine.bursts_completed == 256 // (4 * FLOATS_PER_WORD)

    def test_block_offset_too_small_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            TransferEngine(
                "e", 0, Stream("s"), MemoryChannel(),
                burst_words=4, bursts_per_sector=2, sectors=1, block_offset=4,
            )

    @pytest.mark.parametrize("bad_kwargs", [
        dict(burst_words=0, bursts_per_sector=1, sectors=1, block_offset=64),
        dict(burst_words=1, bursts_per_sector=0, sectors=1, block_offset=64),
        dict(burst_words=1, bursts_per_sector=1, sectors=0, block_offset=64),
    ])
    def test_invalid_parameters(self, bad_kwargs):
        with pytest.raises(ValueError):
            TransferEngine("e", 0, Stream("s"), MemoryChannel(), **bad_kwargs)

    def test_engine_stalls_on_empty_stream(self):
        cfg = MemoryChannelConfig(setup_cycles=0, cycles_per_word=1)

        class Trickle(DummySource):
            def tick(self, cycle):
                if cycle % 3 == 0:
                    return super().tick(cycle)
                self._account(False)
                return True  # deliberately idle — time passing, not deadlock

        memory = GlobalMemory(2)
        channel = MemoryChannel(cfg, memory)
        region = DataflowRegion("t")
        region.attach_memory_channel(channel)
        s = Stream("s", depth=4)
        region.add(Trickle("src", s, 16))
        engine = TransferEngine(
            "eng", 0, s, channel,
            burst_words=1, bursts_per_sector=1, sectors=1, block_offset=1,
        )
        region.add(engine)
        region.run()
        assert engine.stats.stall_cycles > 0


#: float32 bit patterns at the edges of the format
EDGE_VALUES = [
    0.0,
    -0.0,
    2.0**-149,  # smallest subnormal
    float(np.finfo(np.float32).max),
    float("inf"),
    float("-inf"),
    float("nan"),
]


@pytest.mark.parametrize("burst_words", [1, 3])
@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_burst_words_match_pack_floats(value, burst_words):
    """The word format, pinned: a ``DummySource → TransferEngine`` region,
    fused and on the reference loop, leaves device memory byte for byte
    as ``pack_floats`` + ``write_word`` would write it."""
    bursts = 2
    words = bursts * burst_words
    expected = GlobalMemory(words)
    for address in range(words):
        expected.write_word(address, pack_floats([value] * FLOATS_PER_WORD)[0])
    for fast in (True, False):
        memory = GlobalMemory(words)
        channel = MemoryChannel(MemoryChannelConfig(), memory)
        stream = Stream("s", depth=2)
        region = DataflowRegion("edge")
        region.attach_memory_channel(channel)
        region.add(DummySource("src", stream, words * FLOATS_PER_WORD, value=value))
        region.add(TransferEngine(
            "eng", 0, stream, channel, burst_words=burst_words,
            bursts_per_sector=bursts, sectors=1, block_offset=words,
        ))
        region.run(fast_path=fast)
        assert memory._data.tobytes() == expected._data.tobytes()
        assert memory.words_written == words


class TestDummySource:
    def test_emits_exactly_count(self):
        s = Stream("s", depth=100)
        src = DummySource("d", s, 7)
        c = 0
        while not src.done():
            src.tick(c)
            c += 1
        assert s.total_writes == 7

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            DummySource("d", Stream("s"), -1)


class TestFastPathHints:
    """Units for the engine/source side of the cycle-skipping fast path."""

    def _engine(self, **kwargs):
        channel = MemoryChannel(
            MemoryChannelConfig(setup_cycles=2, cycles_per_word=1)
        )
        stream = Stream("s", depth=4)
        engine = TransferEngine(
            "eng", 0, stream, channel,
            burst_words=1, bursts_per_sector=2, sectors=1, block_offset=2,
            **kwargs,
        )
        return engine, stream, channel

    def test_starved_pack_is_conditional_no_self_event(self):
        from repro.core.process import NO_SELF_EVENT

        engine, stream, _ = self._engine()
        assert stream.empty()
        assert engine.next_event(5) == NO_SELF_EVENT

    def test_pack_with_data_gives_no_guarantee(self):
        engine, stream, _ = self._engine()
        stream.write(1.0)
        assert engine.next_event(0) is None

    def test_wait_burst_event_is_predicted_completion_plus_one(self):
        engine, stream, channel = self._engine()
        cycle = 0
        while engine._pending is None:
            if stream.can_write(cycle):
                stream.write(1.0)
            engine.tick(cycle)
            cycle += 1
        event = engine.next_event(cycle)
        assert event == channel.predict_done(engine._pending, cycle) + 1
        # skip right up to the event, then tick: the engine advances
        span = event - cycle
        engine.skip_cycles(cycle, span)
        channel.skip_cycles(cycle, span)
        assert engine._pending.done
        assert engine.tick(event)  # grant bookkeeping = progress

    def test_skip_matches_ticked_stall_accounting(self):
        ticked, t_stream, _ = self._engine()
        skipped, s_stream, _ = self._engine()
        for c in range(6):  # starved PACK on both
            ticked.tick(c)
        skipped.skip_cycles(0, 6)
        assert vars(ticked.stats) == vars(skipped.stats)
        assert t_stream.read_stalls == s_stream.read_stalls == 6

    def test_subclass_override_disables_hints(self):
        class CustomEngine(TransferEngine):
            def tick(self, cycle):
                return super().tick(cycle)

        engine, _, _ = self._engine()
        custom = CustomEngine(
            "c", 0, Stream("x"), MemoryChannel(),
            burst_words=1, bursts_per_sector=1, sectors=1, block_offset=1,
        )
        assert engine._hintable and not custom._hintable
        assert custom.next_event(0) is None

    def test_dummy_source_backpressure_hint(self):
        from repro.core.process import NO_SELF_EVENT

        sink = Stream("s", depth=1)
        src = DummySource("d", sink, 4)
        assert src.next_event(0) is None  # room to write: will act
        src.tick(0)
        assert sink.full()
        assert src.next_event(1) == NO_SELF_EVENT
        src.skip_cycles(1, 3)
        assert src.stats.stall_cycles == 3
        assert sink.write_stalls == 3
