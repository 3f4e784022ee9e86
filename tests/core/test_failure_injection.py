"""Failure-injection tests: the region must fail loudly, not hang.

Hardware dataflow designs hang silently when a producer underdelivers
or a consumer never drains; the simulator turns each of those into a
diagnosable DeadlockError (or a clean result when the design tolerates
the fault)."""

import numpy as np
import pytest

from repro.core import (
    DataflowRegion,
    DeadlockError,
    DecoupledConfig,
    DecoupledWorkItems,
    GammaKernelConfig,
    MemoryChannel,
    MemoryChannelConfig,
    Stream,
    TransferEngine,
    GlobalMemory,
)
from repro.core.transfer import DummySource
from repro.rng.mersenne import MT521_PARAMS


class TestProducerUnderdelivery:
    def test_kernel_limit_max_starves_transfer_engine(self):
        """If limitMax caps the kernel before the output quota is met,
        the Transfer engine waits forever for stream data — the region
        must detect the hang and name the stuck engine."""
        cfg = DecoupledConfig(
            n_work_items=1,
            kernel=GammaKernelConfig(
                mt_params=MT521_PARAMS,
                limit_main=64,
                limit_max=70,  # ~23 % rejection → cannot reach 64 outputs
            ),
            burst_words=2,
        )
        with pytest.raises(DeadlockError, match="Transfer0"):
            DecoupledWorkItems(cfg).run()

    def test_short_dummy_source_starves_engine(self):
        values = 64  # engine expects 2 bursts = 64 values... but only 32 sent
        memory = GlobalMemory(4)
        channel = MemoryChannel(MemoryChannelConfig(), memory)
        region = DataflowRegion("starved")
        region.attach_memory_channel(channel)
        s = Stream("s", depth=8)
        region.add(DummySource("src", s, 32))
        region.add(TransferEngine(
            "eng", 0, s, channel, burst_words=2, bursts_per_sector=2,
            sectors=1, block_offset=4,
        ))
        with pytest.raises(DeadlockError, match="eng"):
            region.run()


class TestConsumerMissing:
    def test_kernel_with_no_consumer_blocks(self):
        """A kernel whose stream nobody drains fills the FIFO and blocks
        — detected instead of spinning forever."""
        from repro.core import GammaRNGProcess

        region = DataflowRegion("noconsumer")
        sink = Stream("g", depth=2)
        region.add(GammaRNGProcess(
            "k", 0, GammaKernelConfig(mt_params=MT521_PARAMS, limit_main=64),
            sink,
        ))
        with pytest.raises(DeadlockError, match="k"):
            region.run()


class TestRecoverableFaults:
    def test_minimum_stream_depth_still_correct(self):
        """Depth-1 FIFOs maximize backpressure but must not lose data."""
        cfg = DecoupledConfig(
            n_work_items=2,
            kernel=GammaKernelConfig(mt_params=MT521_PARAMS, limit_main=64),
            burst_words=2,
            stream_depth=1,
        )
        res = DecoupledWorkItems(cfg).run()
        for wid, kernel in enumerate(res.kernels):
            np.testing.assert_allclose(
                res.gammas(wid),
                np.array(kernel.produced, dtype=np.float32),
                rtol=1e-6,
            )

    def test_glacial_channel_still_completes(self):
        """A pathologically slow channel stretches, but never wedges,
        the schedule."""
        cfg = DecoupledConfig(
            n_work_items=2,
            kernel=GammaKernelConfig(mt_params=MT521_PARAMS, limit_main=32),
            burst_words=2,
            channel=MemoryChannelConfig(setup_cycles=5000, cycles_per_word=50),
        )
        res = DecoupledWorkItems(cfg).run()
        assert res.gammas().size == 64
        chan = res.report.process_stats["__memory_channel_0__"]
        assert chan.busy_cycles > 0.9 * res.cycles

    def test_limit_max_generous_enough_completes(self):
        cfg = DecoupledConfig(
            n_work_items=1,
            kernel=GammaKernelConfig(
                mt_params=MT521_PARAMS, limit_main=32, limit_max=512
            ),
            burst_words=2,
        )
        res = DecoupledWorkItems(cfg).run()
        assert res.gammas().size == 32


class TestMtFamilyKernel:
    def test_family_kernel_produces_valid_gammas(self):
        from scipy import stats

        cfg = DecoupledConfig(
            n_work_items=2,
            kernel=GammaKernelConfig(
                mt_params=MT521_PARAMS, limit_main=512, mt_family=True
            ),
            burst_words=2,
        )
        res = DecoupledWorkItems(cfg).run()
        p = stats.kstest(res.gammas(), "gamma", args=(1 / 1.39, 0, 1.39)).pvalue
        assert p > 1e-3

    def test_family_twisters_have_distinct_params(self):
        from repro.core import GammaRNGProcess

        cfg = GammaKernelConfig(
            mt_params=MT521_PARAMS, limit_main=32, mt_family=True
        )
        k = GammaRNGProcess("k", 0, cfg, Stream("s", depth=64))
        a_values = {
            k.mt_norm_a.params.a, k.mt_norm_b.params.a,
            k.mt_reject.params.a, k.mt_correct.params.a,
        }
        assert len(a_values) == 4

    def test_family_differs_from_shared_params_stream(self):
        from repro.core import GammaRNGProcess

        outs = []
        for family in (False, True):
            cfg = GammaKernelConfig(
                mt_params=MT521_PARAMS, limit_main=64, mt_family=family
            )
            sink = Stream("s", depth=1000)
            k = GammaRNGProcess("k", 0, cfg, sink)
            c = 0
            while not k.done():
                k.tick(c)
                c += 1
            outs.append(list(sink.drain()))
        assert outs[0] != outs[1]
