"""Tests for Monte-Carlo option pricing on generated normals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.finance import (
    GBMParams,
    black_scholes_price,
    price_asian,
    price_european,
    simulate_gbm_paths,
)
from repro.rng import MarsagliaBray, MersenneTwister
from repro.rng.mersenne import MT521_PARAMS

PARAMS = GBMParams(spot=100.0, rate=0.03, volatility=0.25, maturity=1.0)


class TestBlackScholes:
    def test_atm_call_value(self):
        # standard reference: S=100, K=100, r=3%, sigma=25%, T=1
        price = black_scholes_price(PARAMS, 100.0, call=True)
        assert price == pytest.approx(11.35, abs=0.05)

    def test_put_call_parity(self):
        k = 95.0
        call = black_scholes_price(PARAMS, k, call=True)
        put = black_scholes_price(PARAMS, k, call=False)
        parity = PARAMS.spot - k * math.exp(-PARAMS.rate * PARAMS.maturity)
        assert call - put == pytest.approx(parity, abs=1e-9)

    def test_deep_itm_call_near_forward(self):
        call = black_scholes_price(PARAMS, 1.0, call=True)
        assert call == pytest.approx(
            PARAMS.spot - math.exp(-PARAMS.rate) * 1.0, abs=0.01
        )

    @pytest.mark.parametrize("call", [True, False])
    def test_matches_norm_cdf_formula(self, call):
        # scipy.special.ndtr is what norm.cdf wraps: same value, same type
        s, r, sigma, t = (
            PARAMS.spot, PARAMS.rate, PARAMS.volatility, PARAMS.maturity,
        )
        disc = math.exp(-r * t)
        for strike in np.linspace(1.0, 400.0, 200).tolist():
            d1 = (math.log(s / strike) + (r + 0.5 * sigma**2) * t) / (
                sigma * math.sqrt(t)
            )
            d2 = d1 - sigma * math.sqrt(t)
            if call:
                ref = s * stats.norm.cdf(d1) - strike * disc * stats.norm.cdf(d2)
            else:
                ref = strike * disc * stats.norm.cdf(-d2) - s * stats.norm.cdf(-d1)
            price = black_scholes_price(PARAMS, strike, call=call)
            assert (type(price), price) == (type(ref), ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            black_scholes_price(PARAMS, 0.0)
        with pytest.raises(ValueError):
            GBMParams(spot=-1, rate=0.0, volatility=0.2, maturity=1.0)
        with pytest.raises(ValueError):
            GBMParams(spot=1, rate=0.0, volatility=0.0, maturity=1.0)


class TestGBMPaths:
    def test_shape(self):
        z = np.zeros((10, 4))
        paths = simulate_gbm_paths(PARAMS, z)
        assert paths.shape == (10, 4)

    def test_zero_noise_is_deterministic_drift(self):
        z = np.zeros((1, 1))
        terminal = simulate_gbm_paths(PARAMS, z)[0, -1]
        expected = PARAMS.spot * math.exp(
            (PARAMS.rate - 0.5 * PARAMS.volatility**2) * PARAMS.maturity
        )
        assert terminal == pytest.approx(expected)

    def test_martingale_property(self):
        """Discounted terminal expectation equals the spot (risk-neutral)."""
        rng = np.random.default_rng(5)
        z = rng.standard_normal((400_000, 1))
        terminal = simulate_gbm_paths(PARAMS, z)[:, -1]
        disc = math.exp(-PARAMS.rate * PARAMS.maturity)
        assert disc * terminal.mean() == pytest.approx(PARAMS.spot, rel=2e-3)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            simulate_gbm_paths(PARAMS, np.zeros(5))


class TestEuropeanPricing:
    def test_converges_to_black_scholes(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(400_000)
        for strike in (80.0, 100.0, 120.0):
            mc = price_european(PARAMS, strike, z)
            ref = black_scholes_price(PARAMS, strike)
            assert mc.contains(ref), (strike, mc.price, ref)

    def test_put_pricing(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal(300_000)
        mc = price_european(PARAMS, 100.0, z, call=False)
        ref = black_scholes_price(PARAMS, 100.0, call=False)
        assert mc.contains(ref)

    def test_multistep_consistent_with_single_step(self):
        rng = np.random.default_rng(17)
        single = price_european(PARAMS, 100.0, rng.standard_normal(200_000))
        multi = price_european(
            PARAMS, 100.0, rng.standard_normal((200_000, 8))
        )
        assert multi.price == pytest.approx(single.price, abs=4 * (
            single.std_error + multi.std_error
        ))

    def test_pipeline_normals_price_correctly(self):
        """The paper-grade loop: Marsaglia-Bray normals out of our own
        twisters price the option to within Monte-Carlo error of
        Black-Scholes."""
        mb = MarsagliaBray(
            MersenneTwister(MT521_PARAMS, seed=21),
            MersenneTwister(MT521_PARAMS, seed=22),
        )
        z = mb.normals(150_000).astype(np.float64)
        mc = price_european(PARAMS, 100.0, z)
        ref = black_scholes_price(PARAMS, 100.0)
        assert mc.contains(ref, z=4.0)


class TestAsianPricing:
    def test_asian_below_european(self):
        """Averaging reduces effective volatility: the arithmetic Asian
        call is cheaper than the European at the same strike."""
        rng = np.random.default_rng(19)
        z = rng.standard_normal((150_000, 12))
        asian = price_asian(PARAMS, 100.0, z)
        euro = black_scholes_price(PARAMS, 100.0)
        assert asian.price < euro

    def test_asian_put(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((50_000, 12))
        put = price_asian(PARAMS, 100.0, z, call=False)
        assert put.price > 0

    def test_needs_paths(self):
        with pytest.raises(ValueError):
            price_asian(PARAMS, 100.0, np.zeros(10))
        with pytest.raises(ValueError):
            price_asian(PARAMS, 100.0, np.zeros((10, 1)))


class TestOptionResult:
    def test_confidence_interval(self):
        from repro.finance import OptionResult

        r = OptionResult(price=10.0, std_error=0.5, paths=100)
        lo, hi = r.confidence_interval()
        assert lo == pytest.approx(10.0 - 1.96 * 0.5)
        assert r.contains(10.5)
        assert not r.contains(13.0)


@given(
    strike=st.floats(min_value=50.0, max_value=200.0),
    sigma=st.floats(min_value=0.05, max_value=0.8),
)
@settings(max_examples=50)
def test_prop_put_call_parity(strike, sigma):
    params = GBMParams(spot=100.0, rate=0.02, volatility=sigma, maturity=0.5)
    call = black_scholes_price(params, strike, call=True)
    put = black_scholes_price(params, strike, call=False)
    parity = 100.0 - strike * math.exp(-0.02 * 0.5)
    assert call - put == pytest.approx(parity, abs=1e-8)


@given(strike=st.floats(min_value=60.0, max_value=150.0))
@settings(max_examples=30)
def test_prop_call_price_bounds(strike):
    call = black_scholes_price(PARAMS, strike)
    lower = max(
        0.0, PARAMS.spot - strike * math.exp(-PARAMS.rate * PARAMS.maturity)
    )
    assert lower - 1e-9 <= call <= PARAMS.spot
