"""Tests for the two ICDF transforms (CUDA-style and FPGA bit-level)
and the float64 normal quantile behind the ROM and the path rates."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri

from repro.rng import IcdfFpga, icdf_cuda_style, icdf_fpga_style
from repro.rng.icdf import _segment_edges, normal_quantile


class TestCudaStyle:
    def test_matches_scipy_ppf(self):
        u = np.linspace(1e-6, 1 - 1e-6, 10001)
        np.testing.assert_allclose(
            icdf_cuda_style(u), stats.norm.ppf(u), atol=5e-4
        )

    def test_scalar(self):
        assert icdf_cuda_style(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert isinstance(icdf_cuda_style(0.5), float)

    def test_median_is_zero(self):
        assert icdf_cuda_style(0.5) == pytest.approx(0.0, abs=1e-6)

    def test_antisymmetric(self):
        u = np.linspace(0.01, 0.49, 49)
        np.testing.assert_allclose(
            icdf_cuda_style(u), -icdf_cuda_style(1 - u), atol=1e-5
        )

    def test_domain_enforced(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                icdf_cuda_style(bad)

    def test_float32_output(self):
        assert icdf_cuda_style(np.array([0.3, 0.7])).dtype == np.float32

    def test_distribution_ks(self):
        rng = np.random.default_rng(17)
        z = icdf_cuda_style(rng.random(200000))
        assert stats.kstest(z, "norm").pvalue > 1e-3


class TestFpgaStyleConstruction:
    def test_default_table_shapes(self):
        t = IcdfFpga()
        assert t._c0.shape == (t.segments + 1, 1 << t.subseg_bits)

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            IcdfFpga(segments=0)
        with pytest.raises(ValueError):
            IcdfFpga(segments=31)

    def test_invalid_subseg_bits(self):
        with pytest.raises(ValueError):
            IcdfFpga(subseg_bits=0)

    def test_rejection_probability(self):
        assert IcdfFpga(segments=10).rejection_probability == 2.0**-10

    @pytest.mark.parametrize(
        "segments,subseg_bits", [(28, 6), (1, 1), (20, 5), (30, 12)]
    )
    def test_rom_matches_norm_ppf_tables(self, segments, subseg_bits):
        # the ROM is built with repro.rng.icdf.normal_quantile (AS241 in
        # numpy): every coefficient equals the table norm.ppf builds
        t = IcdfFpga(segments, subseg_bits)
        n_sub = 1 << subseg_bits
        for s in range(segments + 1):
            edges = np.linspace(2.0 ** -(s + 2), 2.0 ** -(s + 1), n_sub + 1)
            mag = -stats.norm.ppf(edges)
            np.testing.assert_array_equal(
                t._c0[s], np.round(mag[:-1] * t._scale).astype(np.int64)
            )
            np.testing.assert_array_equal(
                t._c1[s],
                np.round((mag[1:] - mag[:-1]) * t._scale).astype(np.int64),
            )


class TestFpgaStyleDecompose:
    def test_sign_bit(self):
        t = IcdfFpga()
        assert t.decompose(0x00000001)[0] == 0
        assert t.decompose(0x80000001)[0] == 1

    def test_zero_magnitude_invalid(self):
        t = IcdfFpga()
        assert t.decompose(0)[4] is False
        assert t.decompose(0x80000000)[4] is False

    def test_segment_from_lzc(self):
        t = IcdfFpga()
        # x = 2**30 → leading bit at position 30 → segment 0 (p near 0.25-0.5)
        assert t.decompose(1 << 30)[1] == 0
        # x = 2**29 → segment 1
        assert t.decompose(1 << 29)[1] == 1

    def test_deep_tail_invalid(self):
        t = IcdfFpga(segments=8)
        # x below 2**(31-8) = 2**23 cannot be resolved
        sign, seg, sub, frac, valid = t.decompose((1 << 22))
        assert not valid

    def test_subsegment_extraction(self):
        t = IcdfFpga(subseg_bits=4)
        # x = 0b1_1010_... : leading one then sub bits 1010
        x = (1 << 30) | (0b1010 << 26)
        assert t.decompose(x)[2] == 0b1010


class TestFpgaStyleAccuracy:
    def test_tracks_exact_ppf(self):
        t = IcdfFpga()
        rng = np.random.default_rng(23)
        u = rng.integers(1, 2**32, 20000, dtype=np.uint64).astype(np.uint32)
        vals, valid = t.evaluate_batch(u)
        x = (u & np.uint32(0x7FFFFFFF)).astype(np.float64)
        sign = (u >> np.uint32(31)).astype(np.int64)
        p = x / 2.0**32
        ok = valid & (p > 0)
        ref = stats.norm.ppf(p[ok])
        ref = np.where(sign[ok] == 1, -ref, ref)
        np.testing.assert_allclose(vals[ok], ref, atol=2e-3)

    def test_normal_distribution_ks(self):
        rng = np.random.default_rng(29)
        u = rng.integers(0, 2**32, 200000, dtype=np.uint64).astype(np.uint32)
        vals, valid = icdf_fpga_style(u)
        assert stats.kstest(vals[valid], "norm").pvalue > 1e-3

    def test_antisymmetry_of_halves(self):
        t = IcdfFpga()
        for x in [1 << 20, (1 << 30) + 12345, (1 << 28) | 0xFFF]:
            lo, _ = t.evaluate(x)
            hi, _ = t.evaluate(0x80000000 | x)
            assert lo == pytest.approx(-hi, abs=1e-6)

    def test_monotone_within_half(self):
        t = IcdfFpga()
        xs = np.sort(
            np.random.default_rng(31).integers(
                1 << 8, 1 << 31, 3000, dtype=np.int64
            )
        ).astype(np.uint32)
        vals, valid = t.evaluate_batch(xs)
        v = vals[valid].astype(np.float64)
        # chord interpolation of a monotone function is monotone up to
        # rounding of the fixed-point coefficients
        assert np.all(np.diff(v) > -1e-5)


class TestFpgaScalarBatchConsistency:
    def test_scalar_matches_batch(self):
        t = IcdfFpga()
        rng = np.random.default_rng(37)
        u = rng.integers(0, 2**32, 300, dtype=np.uint64).astype(np.uint32)
        bvals, bvalid = t.evaluate_batch(u)
        for i, w in enumerate(u.tolist()):
            v, ok = t.evaluate(w)
            assert ok == bool(bvalid[i])
            if ok:
                assert v == pytest.approx(float(bvals[i]), abs=1e-6)

    def test_module_level_dispatch(self):
        scalar = icdf_fpga_style(1 << 30)
        assert isinstance(scalar, tuple) and isinstance(scalar[0], float)
        arr = icdf_fpga_style(np.array([1 << 30], dtype=np.uint32))
        assert scalar[0] == pytest.approx(float(arr[0][0]), abs=1e-6)


# shared tables: construction builds the coefficient ROM, so hypothesis
# examples must not re-instantiate per draw
_T20 = IcdfFpga(segments=20, subseg_bits=5)
_TDEF = IcdfFpga()


@given(u=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300)
def test_prop_scalar_batch_agree(u):
    t = _T20
    v, ok = t.evaluate(u)
    bv, bok = t.evaluate_batch(np.array([u], dtype=np.uint32))
    assert ok == bool(bok[0])
    if ok:
        assert v == pytest.approx(float(bv[0]), abs=1e-6)


@given(u=st.integers(min_value=1, max_value=2**31 - 1))
@settings(max_examples=300)
def test_prop_lower_half_negative(u):
    v, ok = _TDEF.evaluate(u)
    if ok:
        # p < 0.5 → non-positive quantile (fixed-point rounding can
        # flatten the near-median magnitude to -0.0)
        assert v <= 0.0


def ulp_distance(a, b) -> np.ndarray:
    """Units in the last place between two float64 arrays, across zero too."""

    def ordinal(x):
        bits = np.asarray(x, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)

    return np.abs(ordinal(a) - ordinal(b))


def stdlib_quantile(p) -> np.ndarray:
    inv_cdf = statistics.NormalDist().inv_cdf
    return np.array([inv_cdf(float(v)) for v in np.ravel(p)]).reshape(np.shape(p))


def around(p: float, steps: int = 128) -> np.ndarray:
    """``p`` and its ``steps`` nearest float64 neighbours on each side.

    128 reach across the r = 5 branch point: near p = exp(-25), r =
    sqrt(-log p) moves one ULP per about 40 ULP of p.
    """
    out = [p]
    lo = hi = p
    for _ in range(steps):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
        out += [lo, hi]
    return np.sort(np.array(out))


class TestNormalQuantile:
    """AS241 in numpy against the stdlib's AS241 and scipy's ndtri."""

    #: the uniforms of the ICDF path-rate draw, and the ROM's edges
    INPUTS = {
        "path-rate draw": np.random.default_rng(1234).random(400_000),
        "rom edges 28x6": _segment_edges(28, 6),
        "rom edges 30x12": _segment_edges(30, 12),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_matches_stdlib_as241(self, name):
        p = self.INPUTS[name]
        assert ulp_distance(normal_quantile(p), stdlib_quantile(p)).max() <= 8

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_matches_scipy_ndtri(self, name):
        p = self.INPUTS[name]
        assert ulp_distance(normal_quantile(p), ndtri(p)).max() <= 16

    def test_shape_follows_input(self):
        assert normal_quantile(_segment_edges(3, 2)).shape == (4, 5)
        assert normal_quantile(0.975).shape == ()
        assert float(normal_quantile(0.975)) == pytest.approx(1.959963984540054)

    def test_median_is_exactly_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_odd_symmetry(self):
        # dyadic p down to 2**-53, where 1 - p is exact
        p = np.concatenate(
            [np.arange(1, 1 << 12) / (1 << 13), np.ldexp(1.0, -np.arange(2, 54))]
        )
        np.testing.assert_array_equal(normal_quantile(1.0 - p), -normal_quantile(p))

    def test_infinite_at_zero_and_one_nan_outside(self):
        x = normal_quantile(np.array([0.0, 1.0, -0.0, -1e-300, 1.0 + 2**-52, np.nan]))
        assert x[0] == -np.inf and x[1] == np.inf and x[2] == -np.inf
        assert np.isnan(x[3:]).all()

    @pytest.mark.parametrize(
        "edge",
        [0.5 - 0.425, 0.5 + 0.425, math.exp(-25.0), 1.0 - math.exp(-25.0)],
        ids=["central-low", "central-high", "r=5-low", "r=5-high"],
    )
    def test_branch_boundaries(self, edge):
        p = around(edge)
        # the neighbourhood straddles the branch point
        q = np.abs(p - 0.5)
        if edge in (0.5 - 0.425, 0.5 + 0.425):
            assert (q <= 0.425).any() and (q > 0.425).any()
        else:
            r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
            assert (r <= 5.0).any() and (r > 5.0).any()
        x = normal_quantile(p)
        assert ulp_distance(x, stdlib_quantile(p)).max() <= 8
        assert ulp_distance(x, ndtri(p)).max() <= 16
