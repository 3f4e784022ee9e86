"""Tests for op cost tables and kernel attempt profiles."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from repro.devices import (
    AttemptProfile,
    PathRates,
    Segment,
    attempt_profile,
    measured_path_rates,
    op_cost,
    segment_cost,
)
from repro.devices.ops import OP_COSTS, OP_KINDS
from repro.devices.profiles import _normal_draw
from repro.rng.erfinv import CENTRAL_W_LIMIT
from repro.rng.gamma import marsaglia_tsang_constants
from repro.rng.marsaglia_bray import POLAR_ACCEPTANCE
from repro.serve import WorkloadSpec

#: the serving tier's variances, the boost boundary and §IV-E's spot values
RATE_VARIANCES = WorkloadSpec().variances + (0.1, 0.99, 1.0, 100.0)
RATE_TRANSFORMS = ["icdf_fpga", "icdf_cuda", "marsaglia_bray"]


def full_array_rates(transform, variance, samples=400_000, seed=1234):
    """Reference: every candidate of a fresh draw through the whole
    Marsaglia-Tsang attempt, with ``norm.ppf`` quantiles on the ICDF
    paths."""
    rng = np.random.default_rng(seed)
    consts = marsaglia_tsang_constants(1.0 / variance)
    if transform == "marsaglia_bray":
        u1 = rng.uniform(-1.0, 1.0, samples)
        u2 = rng.uniform(-1.0, 1.0, samples)
        s = u1 * u1 + u2 * u2
        valid = (s > 0.0) & (s < 1.0)
        normal_accept = float(np.mean(valid))
        s_ok = np.where(valid, s, 0.5)
        factor = np.sqrt(-2.0 * np.log(s_ok) / s_ok)
        x = np.where(valid, u1 * factor, 0.0)[valid]
        erfinv_tail = 0.0
    else:
        u = rng.random(samples)
        normal_accept = 1.0
        x = stats.norm.ppf(u)
        arg = 2.0 * u - 1.0
        w = -np.log((1.0 - arg) * (1.0 + arg))
        erfinv_tail = float(np.mean(w >= CENTRAL_W_LIMIT))
    u_rej = rng.random(x.size)
    t = 1.0 + consts.c * x
    v = t * t * t
    positive = t > 0.0
    squeeze_pass = u_rej < 1.0 - 0.0331 * x**4
    with np.errstate(invalid="ignore", divide="ignore"):
        full_pass = np.log(u_rej) < 0.5 * x * x + consts.d * (
            1.0 - v + np.log(np.where(positive, v, 1.0))
        )
    return PathRates(
        normal_accept=normal_accept,
        gamma_accept=float(np.mean(positive & (squeeze_pass | full_pass))),
        squeeze_miss=float(np.mean(positive & ~squeeze_pass)),
        cube_negative=float(np.mean(~positive)),
        erfinv_tail=erfinv_tail,
    )


def assert_identical(got, want):
    """Equal values and equal types, field by field."""
    assert got == want
    assert [type(f) for f in vars(got).values()] == [
        type(f) for f in vars(want).values()
    ]


class TestOpCosts:
    def test_all_devices_cover_all_kinds(self):
        for dev, table in OP_COSTS.items():
            assert set(table) == set(OP_KINDS), dev

    def test_positive_costs(self):
        for table in OP_COSTS.values():
            assert all(c > 0 for c in table.values())

    def test_lookup(self):
        assert op_cost("CPU", "flop") == 0.5

    def test_unknown_device(self):
        with pytest.raises(KeyError, match="no op-cost table"):
            op_cost("TPU", "flop")

    def test_unknown_op(self):
        with pytest.raises(KeyError, match="unknown op"):
            op_cost("CPU", "tensor_core")

    def test_segment_cost_sums(self):
        assert segment_cost("GPU", {"flop": 2, "log": 1}) == 2 * 1.0 + 4.0

    def test_gpu_lzc_native_cheap(self):
        # the reason FPGA-style ICDF is NOT slow on the GPU (Table III)
        assert op_cost("GPU", "lzc") < op_cost("CPU", "lzc")
        assert op_cost("GPU", "lzc") < op_cost("PHI", "lzc")


class TestSegment:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            Segment("s", {"flop": 1}, lane_probability=1.5)

    def test_default_vectorizable(self):
        assert Segment("s", {"flop": 1}).vectorizable


class TestMeasuredRates:
    def test_mb_normal_accept_near_pi_over_4(self):
        rates = measured_path_rates("marsaglia_bray", 1.39)
        assert rates.normal_accept == pytest.approx(POLAR_ACCEPTANCE, abs=0.01)

    def test_icdf_rejection_free(self):
        rates = measured_path_rates("icdf_cuda", 1.39)
        assert rates.normal_accept == 1.0

    def test_combined_accept_ordering(self):
        """§IV-E: the MB path rejects far more than the ICDF path."""
        mb = measured_path_rates("marsaglia_bray", 1.39)
        ic = measured_path_rates("icdf_cuda", 1.39)
        assert 1 - mb.combined_accept > 0.15
        assert 1 - ic.combined_accept < 0.10

    def test_gamma_rejection_grows_with_variance(self):
        lo = measured_path_rates("icdf_cuda", 0.1)
        hi = measured_path_rates("icdf_cuda", 100.0)
        assert hi.gamma_accept < lo.gamma_accept

    def test_erfinv_tail_rare(self):
        rates = measured_path_rates("icdf_cuda", 1.39)
        assert 0.0 < rates.erfinv_tail < 0.01

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            measured_path_rates("box_muller_gpu", 1.39)

    @pytest.mark.parametrize("variance", RATE_VARIANCES)
    @pytest.mark.parametrize("transform", RATE_TRANSFORMS)
    def test_icdf_rates_match_norm_ppf(self, transform, variance):
        # the serving tier bills every batch key from these rates: one
        # shared draw per normal family, cut to the candidates a variance
        # can change, and repro.rng.icdf.normal_quantile in place of
        # norm.ppf must give exactly what the full-array measurement gives
        assert_identical(
            measured_path_rates(transform, variance),
            full_array_rates(transform, variance),
        )

    @pytest.mark.parametrize("variance", RATE_VARIANCES)
    @pytest.mark.parametrize("transform", RATE_TRANSFORMS)
    def test_rates_match_full_array_at_another_draw(self, transform, variance):
        assert_identical(
            measured_path_rates(transform, variance, 50_000, 7),
            full_array_rates(transform, variance, 50_000, 7),
        )

    def test_concurrent_first_asks_share_one_draw(self):
        variances = RATE_VARIANCES[:8]
        measured_path_rates.cache_clear()
        _normal_draw.cache_clear()
        start = threading.Barrier(len(variances))

        def ask(variance):
            start.wait()
            return measured_path_rates("marsaglia_bray", variance)

        with ThreadPoolExecutor(len(variances)) as pool:
            concurrent = list(pool.map(ask, variances))
        assert _normal_draw.cache_info().misses == 1
        measured_path_rates.cache_clear()
        _normal_draw.cache_clear()
        serial = [measured_path_rates("marsaglia_bray", v) for v in variances]
        assert concurrent == serial

    def test_cached(self):
        a = measured_path_rates("marsaglia_bray", 1.39)
        b = measured_path_rates("marsaglia_bray", 1.39)
        assert a is b


class TestAttemptProfile:
    def test_mb_profile_structure(self):
        p = attempt_profile("marsaglia_bray", 1.39)
        names = [s.name for s in p.segments]
        assert "mb_always" in names and "mb_accept" in names
        assert "correction" in names  # alpha = 1/1.39 < 1 → boosted

    def test_no_correction_for_small_variance(self):
        # v = 0.5 → alpha = 2 >= 1 → no correction segment
        p = attempt_profile("marsaglia_bray", 0.5)
        assert "correction" not in [s.name for s in p.segments]

    def test_icdf_styles_differ(self):
        cuda = attempt_profile("icdf", 1.39, icdf_style="cuda")
        fpga = attempt_profile("icdf", 1.39, icdf_style="fpga")
        assert cuda.name != fpga.name
        assert any(not s.vectorizable for s in fpga.segments)
        assert all(s.vectorizable for s in cuda.segments)

    def test_accept_prob_consistent_with_rates(self):
        p = attempt_profile("marsaglia_bray", 1.39)
        rates = measured_path_rates("marsaglia_bray", 1.39)
        assert p.accept_prob == pytest.approx(rates.combined_accept)

    def test_attempts_per_output(self):
        p = attempt_profile("icdf", 1.39)
        assert p.attempts_per_output == pytest.approx(1 / p.accept_prob)
        assert math.isclose(p.rejection_rate, 1 - p.accept_prob)

    def test_invalid_transform(self):
        with pytest.raises(ValueError):
            attempt_profile("sobol", 1.39)

    def test_invalid_icdf_style(self):
        with pytest.raises(ValueError):
            attempt_profile("icdf", 1.39, icdf_style="metal")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            AttemptProfile("p", (), accept_prob=0.0)
