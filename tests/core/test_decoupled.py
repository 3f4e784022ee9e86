"""Integration tests for the full decoupled-work-items region (Listing 1)."""

import numpy as np
import pytest
from scipy import stats

from repro.core import (
    DecoupledConfig,
    DecoupledWorkItems,
    GammaKernelConfig,
    MemoryChannelConfig,
)
from repro.rng import MT521_PARAMS


def _config(n_wi=2, limit_main=64, sectors=(1.39,), transform="marsaglia_bray",
            burst_words=2, **kw):
    return DecoupledConfig(
        n_work_items=n_wi,
        kernel=GammaKernelConfig(
            transform=transform,
            mt_params=MT521_PARAMS,
            sector_variances=tuple(sectors),
            limit_main=limit_main,
        ),
        burst_words=burst_words,
        **kw,
    )


class TestConfigValidation:
    def test_zero_work_items_rejected(self):
        with pytest.raises(ValueError):
            _config(n_wi=0)

    def test_limit_main_burst_divisibility(self):
        with pytest.raises(ValueError, match="multiple"):
            _config(limit_main=40, burst_words=2)  # 40 % 32 != 0

    def test_derived_quantities(self):
        cfg = _config(n_wi=3, limit_main=64, sectors=(1.0, 2.0), burst_words=2)
        assert cfg.bursts_per_sector == 2
        assert cfg.words_per_item == 2 * 2 * 2
        assert cfg.total_words == 24


class TestEndToEnd:
    def test_all_outputs_reach_memory(self):
        cfg = _config(n_wi=3, limit_main=64)
        res = DecoupledWorkItems(cfg).run()
        g = res.gammas()
        assert g.shape == (3 * 64,)
        assert np.all(g > 0)

    def test_memory_matches_kernel_produced(self):
        """Device memory must contain exactly what each kernel produced,
        in order, at its own blockOffset — Section III-E-2."""
        cfg = _config(n_wi=4, limit_main=64)
        res = DecoupledWorkItems(cfg).run()
        for wid, kernel in enumerate(res.kernels):
            np.testing.assert_allclose(
                res.gammas(wid),
                np.array(kernel.produced, dtype=np.float32),
                rtol=1e-6,
            )

    def test_work_items_independent_streams(self):
        cfg = _config(n_wi=3, limit_main=64)
        res = DecoupledWorkItems(cfg).run()
        a, b = res.gammas(0), res.gammas(1)
        assert not np.array_equal(a, b)

    def test_gammas_wid_bounds(self):
        res = DecoupledWorkItems(_config()).run()
        with pytest.raises(IndexError):
            res.gammas(99)

    def test_multi_sector(self):
        cfg = _config(n_wi=2, limit_main=32, sectors=(1.39, 0.5, 2.0))
        res = DecoupledWorkItems(cfg).run()
        assert res.gammas().shape == (2 * 3 * 32,)

    @pytest.mark.parametrize("transform", ["marsaglia_bray", "icdf_fpga"])
    def test_distribution_preserved_through_memory(self, transform):
        v = 1.39
        cfg = _config(
            n_wi=2, limit_main=512, sectors=(v,), transform=transform
        )
        res = DecoupledWorkItems(cfg).run()
        p = stats.kstest(res.gammas(), "gamma", args=(1 / v, 0, v)).pvalue
        assert p > 1e-4


class TestScheduleProperties:
    def test_decoupling_no_cross_stall(self):
        """A slow (high-rejection) work-item must not slow a fast one:
        every kernel's active cycles stay close to its own attempts."""
        cfg = _config(n_wi=4, limit_main=128)
        res = DecoupledWorkItems(cfg).run()
        for k in res.kernels:
            # stalls only from backpressure, not from other work-items'
            # divergence; with ample stream depth they are few
            assert k.stats.active_cycles >= k.attempts

    def test_runtime_dominated_by_slowest_path(self):
        cfg = _config(n_wi=2, limit_main=128)
        res = DecoupledWorkItems(cfg).run()
        slowest = max(k.stats.cycles for k in res.kernels)
        assert res.cycles >= slowest

    def test_transfers_overlap_compute(self):
        """Fig 3: with several work-items the channel should be busy
        while kernels are still computing — overall cycles far below
        the serialized sum."""
        cfg = _config(n_wi=4, limit_main=256, burst_words=2)
        res = DecoupledWorkItems(cfg).run()
        chan = res.report.process_stats["__memory_channel_0__"]
        serial = sum(k.stats.cycles for k in res.kernels) + chan.busy_cycles
        assert res.cycles < 0.7 * serial

    def test_work_item_scaling_compute_bound(self):
        """With a fast channel the region is compute-bound and throughput
        scales with the number of decoupled pipelines (Fig 2c)."""
        fast = MemoryChannelConfig(setup_cycles=8, cycles_per_word=1)
        r1 = DecoupledWorkItems(
            _config(n_wi=1, limit_main=128, channel=fast)
        ).run()
        r4 = DecoupledWorkItems(
            _config(n_wi=4, limit_main=128, channel=fast)
        ).run()
        assert (
            r4.throughput_rns_per_second() > 2.5 * r1.throughput_rns_per_second()
        )

    def test_work_item_scaling_saturates_when_transfer_bound(self):
        """With the default (realistic) channel the single memory port
        saturates — the effect that caps the paper's FPGA runtimes."""
        r1 = DecoupledWorkItems(_config(n_wi=1, limit_main=128)).run()
        r4 = DecoupledWorkItems(_config(n_wi=4, limit_main=128)).run()
        speedup = r4.throughput_rns_per_second() / r1.throughput_rns_per_second()
        assert 0.8 < speedup < 2.5

    def test_rejection_rate_reported(self):
        res = DecoupledWorkItems(_config(n_wi=2, limit_main=256)).run()
        assert 0.1 < res.rejection_rate < 0.4  # MB+MT combined regime

    def test_transfer_bound_with_slow_channel(self):
        """A throttled channel makes the run transfer-bound: cycles track
        the channel busy time, not the compute time (Table III FPGA rows)."""
        slow = MemoryChannelConfig(setup_cycles=100, cycles_per_word=8)
        cfg = _config(n_wi=4, limit_main=128, channel=slow)
        res = DecoupledWorkItems(cfg).run()
        chan = res.report.process_stats["__memory_channel_0__"]
        assert chan.busy_cycles > 0.8 * res.cycles

    def test_runtime_ms_uses_frequency(self):
        cfg = _config(frequency_hz=100e6)
        res = DecoupledWorkItems(cfg).run()
        assert res.runtime_ms == pytest.approx(res.cycles / 100e6 * 1e3)
