"""Tests for op cost tables and kernel attempt profiles."""

import math

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
from repro.rng.erfinv import CENTRAL_W_LIMIT
from repro.rng.gamma import marsaglia_tsang_constants
from repro.rng.marsaglia_bray import POLAR_ACCEPTANCE
from repro.serve import WorkloadSpec


def icdf_rates_from_norm_ppf(variance, samples=400_000, seed=1234):
    """The ICDF branch of ``measured_path_rates`` with norm.ppf quantiles."""
    rng = np.random.default_rng(seed)
    consts = marsaglia_tsang_constants(1.0 / variance)
    u = rng.random(samples)
    x = stats.norm.ppf(u)
    arg = 2.0 * u - 1.0
    w = -np.log((1.0 - arg) * (1.0 + arg))
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
        normal_accept=1.0,
        gamma_accept=float(np.mean(positive & (squeeze_pass | full_pass))),
        squeeze_miss=float(np.mean(positive & ~squeeze_pass)),
        cube_negative=float(np.mean(~positive)),
        erfinv_tail=float(np.mean(w >= CENTRAL_W_LIMIT)),
    )


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

    @pytest.mark.parametrize("variance", WorkloadSpec().variances)
    @pytest.mark.parametrize("transform", ["icdf_fpga", "icdf_cuda"])
    def test_icdf_rates_match_norm_ppf(self, transform, variance):
        # the serving tier bills its ICDF batch keys from these rates:
        # scipy.special.ndtri must give exactly what norm.ppf gave
        assert measured_path_rates(transform, variance) == (
            icdf_rates_from_norm_ppf(variance)
        )

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
