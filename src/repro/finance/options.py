"""Monte-Carlo option pricing on accelerator-generated normals.

A second complete application of the decoupled-work-items pattern, in
the spirit of the paper's framing ("compute-intensive financial risk
simulations" are what Maxeler sells FPGA time for, §I): geometric
Brownian motion paths built from the pipeline's normal deviates price
European and arithmetic-Asian options, with the European legs validated
against the Black-Scholes closed form.

Everything is numpy-vectorized over paths; the normals can come from

* the internal sampler (fast, for convergence studies), or
* any externally generated array — e.g. the Marsaglia-Bray or ICDF
  output of the FPGA pipeline simulation, closing the loop from
  Listing 2 to a price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GBMParams",
    "OptionResult",
    "black_scholes_price",
    "simulate_gbm_paths",
    "price_european",
    "price_asian",
]


@dataclass(frozen=True)
class GBMParams:
    """Geometric Brownian motion under the risk-neutral measure."""

    spot: float
    rate: float  # continuously compounded risk-free rate
    volatility: float
    maturity: float  # years

    def __post_init__(self):
        if self.spot <= 0:
            raise ValueError("spot must be positive")
        if self.volatility <= 0:
            raise ValueError("volatility must be positive")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")


@dataclass(frozen=True)
class OptionResult:
    """Monte-Carlo price with its standard error."""

    price: float
    std_error: float
    paths: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        return self.price - z * self.std_error, self.price + z * self.std_error

    def contains(self, reference: float, z: float = 3.0) -> bool:
        lo, hi = self.confidence_interval(z)
        return lo <= reference <= hi


def black_scholes_price(
    params: GBMParams, strike: float, call: bool = True
) -> float:
    """Closed-form European option price (the validation target)."""
    from scipy.special import ndtr

    if strike <= 0:
        raise ValueError("strike must be positive")
    s, r, sigma, t = (
        params.spot, params.rate, params.volatility, params.maturity,
    )
    d1 = (math.log(s / strike) + (r + 0.5 * sigma**2) * t) / (
        sigma * math.sqrt(t)
    )
    d2 = d1 - sigma * math.sqrt(t)
    if call:
        return s * ndtr(d1) - strike * math.exp(-r * t) * ndtr(d2)
    return strike * math.exp(-r * t) * ndtr(-d2) - s * ndtr(-d1)


def simulate_gbm_paths(
    params: GBMParams,
    normals: np.ndarray,
) -> np.ndarray:
    """Exact-scheme GBM paths from an (n_paths, n_steps) normal array.

    Returns the (n_paths, n_steps) matrix of prices at the step ends;
    the exact log-Euler scheme is unbiased at any step count.
    """
    z = np.asarray(normals, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("normals must be (paths, steps)")
    n_steps = z.shape[1]
    dt = params.maturity / n_steps
    drift = (params.rate - 0.5 * params.volatility**2) * dt
    shock = params.volatility * math.sqrt(dt)
    log_paths = np.cumsum(drift + shock * z, axis=1)
    return params.spot * np.exp(log_paths)


def _discounted(params: GBMParams, payoffs: np.ndarray) -> OptionResult:
    disc = math.exp(-params.rate * params.maturity)
    values = disc * payoffs
    return OptionResult(
        price=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(values.size)),
        paths=int(values.size),
    )


def price_european(
    params: GBMParams,
    strike: float,
    normals: np.ndarray,
    call: bool = True,
) -> OptionResult:
    """European option from terminal path values.

    ``normals`` may be 1-D (single-step exact simulation — the efficient
    choice for Europeans) or 2-D (multi-step paths).
    """
    z = np.asarray(normals, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    terminal = simulate_gbm_paths(params, z)[:, -1]
    payoff = np.maximum(terminal - strike, 0.0) if call else np.maximum(
        strike - terminal, 0.0
    )
    return _discounted(params, payoff)


def price_asian(
    params: GBMParams,
    strike: float,
    normals: np.ndarray,
    call: bool = True,
) -> OptionResult:
    """Arithmetic-average Asian option (no closed form — MC territory)."""
    z = np.asarray(normals, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError("Asian pricing needs multi-step paths")
    paths = simulate_gbm_paths(params, z)
    average = paths.mean(axis=1)
    payoff = np.maximum(average - strike, 0.0) if call else np.maximum(
        strike - average, 0.0
    )
    return _discounted(params, payoff)
