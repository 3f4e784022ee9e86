"""Tests for GlobalMemory, MemoryChannel and the analytic transfer model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BurstRequest,
    GlobalMemory,
    MemoryChannel,
    MemoryChannelConfig,
    build_transfer_only_region,
    transfer_only_cycles,
)
from repro.fixedpoint import FLOATS_PER_WORD, pack_floats


class TestChannelConfig:
    def test_burst_cycles(self):
        cfg = MemoryChannelConfig(setup_cycles=10, cycles_per_word=2)
        assert cfg.burst_cycles(5) == 20

    def test_burst_cycles_validation(self):
        with pytest.raises(ValueError):
            MemoryChannelConfig().burst_cycles(0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MemoryChannelConfig(setup_cycles=-1)
        with pytest.raises(ValueError):
            MemoryChannelConfig(cycles_per_word=0)

    def test_effective_bandwidth_monotone_in_burst(self):
        cfg = MemoryChannelConfig(setup_cycles=48, cycles_per_word=2)
        bws = [cfg.effective_bandwidth(b, 200e6) for b in (1, 4, 16, 64, 256)]
        assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))

    def test_bandwidth_saturates_at_peak(self):
        cfg = MemoryChannelConfig(setup_cycles=48, cycles_per_word=2)
        peak = cfg.peak_bandwidth(200e6)
        assert cfg.effective_bandwidth(4096, 200e6) < peak
        assert cfg.effective_bandwidth(4096, 200e6) > 0.95 * peak

    def test_peak_bandwidth_value(self):
        # 512 bit = 64 B per word at 200 MHz, 1 cycle/word → 12.8 GB/s
        cfg = MemoryChannelConfig(setup_cycles=0, cycles_per_word=1)
        assert cfg.peak_bandwidth(200e6) == pytest.approx(12.8e9)


class TestGlobalMemory:
    def test_write_read_roundtrip(self):
        mem = GlobalMemory(4)
        values = np.arange(16, dtype=np.float32)
        word = pack_floats(values)[0]
        mem.write_word(2, word)
        np.testing.assert_array_equal(mem.read_floats(2, 16), values)

    def test_write_burst(self):
        mem = GlobalMemory(8)
        values = np.arange(32, dtype=np.float32) + 1
        mem.write_burst(1, pack_floats(values))
        np.testing.assert_array_equal(mem.read_floats(1, 32), values)

    def test_address_bounds(self):
        mem = GlobalMemory(2)
        with pytest.raises(IndexError):
            mem.write_word(2, 0)
        # a negative address or count must not wrap like a slice does
        for address, count in ((1, 32), (-1, 8), (-1, 16), (0, -1)):
            with pytest.raises(IndexError):
                mem.read_floats(address, count)

    @pytest.mark.parametrize("address", [1, -1])
    def test_burst_out_of_range_writes_nothing(self, address):
        """A burst that crosses the end, or starts at a negative address
        (which a slice store would wrap), raises before storing a word."""
        mem = GlobalMemory(2)
        mem.write_word(0, 7)
        before = mem._data.copy()
        with pytest.raises(IndexError):
            mem.write_burst(address, [5, 6])
        np.testing.assert_array_equal(mem._data, before)
        assert mem.words_written == 1

    def test_lane_array_burst_matches_int_words(self):
        """A ``(words, 16)`` uint32 lane array, as a Transfer engine
        submits it, stores what its 512-bit ints would."""
        values = np.linspace(-3.0, 3.0, 48, dtype=np.float32)
        lanes = values.view("<u4").reshape(3, FLOATS_PER_WORD)
        from_lanes, from_ints = GlobalMemory(4), GlobalMemory(4)
        from_lanes.write_burst(1, lanes)
        from_ints.write_burst(1, pack_floats(values))
        assert from_lanes._data.tobytes() == from_ints._data.tobytes()
        assert from_lanes.words_written == from_ints.words_written == 3

    def test_size_validation(self):
        with pytest.raises(ValueError):
            GlobalMemory(0)

    def test_words_written_counter(self):
        mem = GlobalMemory(4)
        mem.write_burst(0, [0, 0, 0])
        assert mem.words_written == 3

    def test_vectorized_lane_split_matches_reference_loop(self):
        """The numpy lane split must be byte-identical to the original
        per-lane shift-mask loop for arbitrary 512-bit payloads."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            word = int.from_bytes(rng.bytes(64), "little")
            fast = GlobalMemory(1)
            fast.write_word(0, word)
            reference = np.array(
                [(word >> (32 * lane)) & 0xFFFFFFFF for lane in range(16)],
                dtype=np.uint32,
            )
            np.testing.assert_array_equal(fast._data, reference)
            np.testing.assert_array_equal(
                fast.read_floats(0, 16), reference.view(np.float32)
            )

    def test_vectorized_write_accepts_ap_uint(self):
        mem = GlobalMemory(1)
        values = np.linspace(-2.0, 2.0, 16, dtype=np.float32)
        mem.write_word(0, pack_floats(values)[0])
        np.testing.assert_array_equal(mem.read_floats(0, 16), values)


class TestMemoryChannel:
    def test_single_burst_timing(self):
        cfg = MemoryChannelConfig(setup_cycles=3, cycles_per_word=2)
        mem = GlobalMemory(4)
        chan = MemoryChannel(cfg, mem)
        req = chan.submit(BurstRequest("wi0", 0, [1, 2], submitted_cycle=0))
        cycles = 0
        while not req.done:
            chan.tick(cycles)
            cycles += 1
        assert cycles == cfg.burst_cycles(2)
        assert mem.words_written == 2

    def test_fifo_arbitration(self):
        chan = MemoryChannel(MemoryChannelConfig(setup_cycles=1, cycles_per_word=1))
        r1 = chan.submit(BurstRequest("a", 0, [1]))
        r2 = chan.submit(BurstRequest("b", 1, [2]))
        for c in range(10):
            chan.tick(c)
        assert r1.completed_cycle < r2.completed_cycle
        assert r2.started_cycle > r1.completed_cycle - 1

    def test_idle_accounting(self):
        chan = MemoryChannel(MemoryChannelConfig(setup_cycles=1, cycles_per_word=1))
        chan.tick(0)
        assert chan.stats.idle_cycles == 1
        chan.submit(BurstRequest("a", 0, [1]))
        chan.tick(1)
        chan.tick(2)
        assert chan.stats.busy_cycles == 2
        assert chan.stats.bursts == 1

    def test_queue_latency_recorded(self):
        chan = MemoryChannel(MemoryChannelConfig(setup_cycles=0, cycles_per_word=5))
        r1 = chan.submit(BurstRequest("a", 0, [1], submitted_cycle=0))
        r2 = chan.submit(BurstRequest("b", 1, [2], submitted_cycle=0))
        c = 0
        while not r2.done:
            chan.tick(c)
            c += 1
        assert r2.queue_latency == 5

    def test_utilization(self):
        chan = MemoryChannel(MemoryChannelConfig(setup_cycles=0, cycles_per_word=1))
        chan.submit(BurstRequest("a", 0, [1]))
        chan.tick(0)
        chan.tick(1)  # idle
        assert chan.stats.utilization == pytest.approx(0.5)


class TestChannelFastPath:
    """Units for the channel side of the cycle-skipping fast path."""

    CFG = MemoryChannelConfig(setup_cycles=3, cycles_per_word=2)

    def test_predict_done_matches_ticked_completion(self):
        ticked = MemoryChannel(self.CFG)
        predicted = MemoryChannel(self.CFG)
        reqs_t, reqs_p = [], []
        for chan, reqs in ((ticked, reqs_t), (predicted, reqs_p)):
            for i, words in enumerate(([1], [2, 3], [4])):
                reqs.append(
                    chan.submit(BurstRequest(f"wi{i}", i, list(words)))
                )
        for c in range(100):
            ticked.tick(c)
        for req_t, req_p in zip(reqs_t, reqs_p):
            assert predicted.predict_done(req_p, 0) == req_t.completed_cycle

    def test_predict_done_cached_and_unknown_request_none(self):
        chan = MemoryChannel(self.CFG)
        req = chan.submit(BurstRequest("a", 0, [1]))
        first = chan.predict_done(req, 0)
        assert chan.predict_done(req, 0) == first  # cached, O(1)
        foreign = BurstRequest("x", 0, [1])
        assert chan.predict_done(foreign, 0) is None

    def test_next_event_is_completion_observation_cycle(self):
        chan = MemoryChannel(self.CFG)
        assert chan.next_event(0) == float("inf")  # idle, empty queue
        req = chan.submit(BurstRequest("a", 0, [1]))
        cost = self.CFG.burst_cycles(1)
        assert chan.next_event(0) == cost  # grant at 0, done at cost-1
        chan.tick(0)
        assert chan.next_event(1) == cost  # one beat drained
        while not req.done:
            chan.tick(chan.stats.busy_cycles)

    @pytest.mark.parametrize("span", [1, 2, 4, 7])
    def test_skip_cycles_equals_n_ticks(self, span):
        for chunks in ([(0, [1])], [(0, [1, 2]), (2, [3])], []):
            ticked = MemoryChannel(self.CFG, GlobalMemory(8))
            skipped = MemoryChannel(self.CFG, GlobalMemory(8))
            for chan in (ticked, skipped):
                for addr, words in chunks:
                    chan.submit(BurstRequest("a", addr, list(words)))
            for c in range(span):
                ticked.tick(c)
            skipped.skip_cycles(0, span)
            assert vars(ticked.stats) == vars(skipped.stats)
            assert (
                ticked.memory.as_float_array()
                == skipped.memory.as_float_array()
            ).all()


class TestAnalyticModel:
    def test_matches_simulation_exactly(self):
        for n_wi, burst, values in [(1, 2, 256), (4, 4, 1024), (6, 8, 2048)]:
            region, _, _ = build_transfer_only_region(n_wi, values, burst)
            sim = region.run().cycles
            model = transfer_only_cycles(values, n_wi, burst)
            assert sim == model, (n_wi, burst, values)

    def test_longer_bursts_fewer_cycles(self):
        cycles = [
            transfer_only_cycles(4096, 4, b) for b in (1, 2, 4, 8, 16, 32)
        ]
        assert all(c2 <= c1 for c1, c2 in zip(cycles, cycles[1:]))

    def test_more_work_items_more_channel_pressure(self):
        per_item = 4096
        c1 = transfer_only_cycles(per_item, 1, 4)
        c8 = transfer_only_cycles(per_item, 8, 4)
        assert c8 > c1  # same per-item data, shared channel serializes

    def test_engine_bound_regime(self):
        """With one work-item and tiny setup, packing dominates: the
        channel hides entirely behind the 1-value-per-cycle packer."""
        cfg = MemoryChannelConfig(setup_cycles=0, cycles_per_word=1)
        c = transfer_only_cycles(1024, 1, 4, config=cfg)
        bursts = 1024 // (4 * FLOATS_PER_WORD)
        assert c == bursts * (4 * FLOATS_PER_WORD + cfg.burst_cycles(4))


@given(
    n_wi=st.integers(min_value=1, max_value=6),
    burst=st.sampled_from([1, 2, 4, 8]),
    bursts_per_item=st.integers(min_value=1, max_value=6),
    setup=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=25, deadline=None)
def test_prop_analytic_model_matches_cycle_sim(n_wi, burst, bursts_per_item, setup):
    """The closed-form Fig 7 model must track the cycle-accurate region.

    The model is exact when one bound clearly dominates; in the mixed
    regime (pack time ≈ serialized burst time) the queueing interaction
    adds a bounded stagger the closed form does not capture, so the
    tolerance widens there."""
    cfg = MemoryChannelConfig(setup_cycles=setup, cycles_per_word=2)
    values = bursts_per_item * burst * FLOATS_PER_WORD
    region, _, _ = build_transfer_only_region(
        n_wi, values, burst, channel_config=cfg
    )
    sim = region.run().cycles
    model = transfer_only_cycles(values, n_wi, burst, config=cfg)
    pack = values  # 1 value/cycle
    burst_cost = cfg.burst_cycles(burst)
    channel_time = n_wi * bursts_per_item * burst_cost
    engine_time = bursts_per_item * (values // bursts_per_item + burst_cost)
    # near the boundary the engines' bursts still collide occasionally,
    # so only call a regime "dominated" beyond a 3x separation
    dominated = max(channel_time, engine_time) >= 3 * min(channel_time, engine_time)
    # absolute floor covers warm-up effects on tiny runs (<100 cycles)
    tolerance = max(16, 0.10 * sim) if dominated else max(16, 0.30 * sim)
    assert abs(sim - model) <= tolerance
