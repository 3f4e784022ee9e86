"""A small statistical test battery for uniform RNGs.

A reusable, self-contained subset of the classical batteries (NIST
SP 800-22 / TestU01 smallcrush style) used to sanity-check every
generator this library ships — the classic MT19937, the
dynamically-created MT521, and any family member from
:func:`repro.rng.dynamic_creation.find_mt_family`.

Each test consumes a uint32 word stream and returns a
:class:`TestOutcome` with a p-value; :func:`run_battery` bundles them.
These are *sanity* tests (they catch broken tempering, stuck bits,
short periods), not a substitute for the full external batteries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestOutcome",
    "monobit_test",
    "block_frequency_test",
    "runs_test",
    "serial_pairs_test",
    "spectral_lag_test",
    "gap_test",
    "birthday_spacings_test",
    "run_battery",
]


@dataclass(frozen=True)
class TestOutcome:
    """Result of one battery test."""

    name: str
    statistic: float
    p_value: float

    @property
    def passed(self) -> bool:
        """Standard battery convention: reject only below alpha=0.01."""
        return self.p_value >= 0.01


def _as_bits(words: np.ndarray) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint32)
    return np.unpackbits(words.view(np.uint8)).astype(np.int8)


def monobit_test(words: np.ndarray) -> TestOutcome:
    """NIST frequency (monobit) test: ones and zeros balance."""
    from scipy import stats

    bits = _as_bits(words)
    n = bits.size
    if n < 100:
        raise ValueError("monobit test needs at least 100 bits")
    s = np.abs(2.0 * bits.sum() - n) / np.sqrt(n)
    p = float(stats.norm.sf(s) * 2.0)
    return TestOutcome("monobit", float(s), p)


def block_frequency_test(words: np.ndarray, block_bits: int = 128) -> TestOutcome:
    """NIST block-frequency test: per-block ones proportion."""
    from scipy import stats

    bits = _as_bits(words)
    n_blocks = bits.size // block_bits
    if n_blocks < 10:
        raise ValueError("need at least 10 blocks")
    blocks = bits[: n_blocks * block_bits].reshape(n_blocks, block_bits)
    pi = blocks.mean(axis=1)
    chi2 = 4.0 * block_bits * np.sum((pi - 0.5) ** 2)
    p = float(stats.chi2.sf(chi2, df=n_blocks))
    return TestOutcome("block_frequency", float(chi2), p)


def runs_test(words: np.ndarray) -> TestOutcome:
    """NIST runs test: number of uninterrupted bit runs."""
    from scipy import stats

    bits = _as_bits(words)
    n = bits.size
    pi = bits.mean()
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return TestOutcome("runs", float("inf"), 0.0)  # fails pre-test
    v = 1 + int(np.count_nonzero(np.diff(bits)))
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * np.sqrt(2.0 * n) * pi * (1 - pi)
    p = float(stats.norm.sf(num / den) * 2.0)
    return TestOutcome("runs", float(num / den), p)


def serial_pairs_test(words: np.ndarray, bins: int = 16) -> TestOutcome:
    """2-D uniformity of consecutive (u_i, u_{i+1}) pairs (chi-square)."""
    from scipy import stats

    u = np.asarray(words, dtype=np.uint64).astype(np.float64) / 2.0**32
    if u.size < 2 * bins * bins * 5:
        raise ValueError("not enough samples for the serial pairs test")
    x = (u[:-1:2] * bins).astype(int).clip(0, bins - 1)
    y = (u[1::2] * bins).astype(int).clip(0, bins - 1)
    counts = np.bincount(x * bins + y, minlength=bins * bins)
    expected = x.size / (bins * bins)
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    p = float(stats.chi2.sf(chi2, df=bins * bins - 1))
    return TestOutcome("serial_pairs", chi2, p)


def spectral_lag_test(words: np.ndarray, max_lag: int = 8) -> TestOutcome:
    """Autocorrelation at small lags (catches short linear structure)."""
    from scipy import stats

    u = np.asarray(words, dtype=np.uint64).astype(np.float64)
    n = u.size
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    std = u.std()
    if std == 0.0:
        # a constant stream is perfectly correlated with itself
        return TestOutcome("spectral_lag", float("inf"), 0.0)
    u = (u - u.mean()) / std
    worst = 0.0
    for lag in range(1, max_lag + 1):
        r = float(np.mean(u[:-lag] * u[lag:]))
        worst = max(worst, abs(r) * np.sqrt(n - lag))
    # Bonferroni over the lags tested
    p = float(min(1.0, max_lag * 2.0 * stats.norm.sf(worst)))
    return TestOutcome("spectral_lag", worst, p)


def gap_test(
    words: np.ndarray, lo: float = 0.0, hi: float = 0.5, max_gap: int = 15
) -> TestOutcome:
    """Knuth's gap test: lengths of runs outside the window [lo, hi).

    Gap lengths are geometric with p = hi - lo; the chi-square compares
    observed gap-length counts against that law.
    """
    from scipy import stats

    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("need 0 <= lo < hi <= 1")
    u = np.asarray(words, dtype=np.uint64).astype(np.float64) / 2.0**32
    inside = (u >= lo) & (u < hi)
    idx = np.flatnonzero(inside)
    if idx.size < 500:
        raise ValueError("not enough in-window hits for the gap test")
    gaps = np.diff(idx) - 1  # zeros-between-hits
    p = hi - lo
    # bins 0..max_gap-1 plus the >= max_gap tail
    counts = np.bincount(np.minimum(gaps, max_gap), minlength=max_gap + 1)
    probs = p * (1 - p) ** np.arange(max_gap)
    probs = np.append(probs, (1 - p) ** max_gap)
    expected = probs * gaps.size
    mask = expected >= 5  # chi-square validity
    chi2 = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(mask.sum()) - 1
    pval = float(stats.chi2.sf(chi2, df=max(dof, 1)))
    return TestOutcome("gap", chi2, pval)


def birthday_spacings_test(
    words: np.ndarray, m_bits: int = 32, n_birthdays: int = 4096
) -> TestOutcome:
    """Marsaglia's birthday-spacings test.

    Draw n "birthdays" in a year of 2**m days; the number of duplicated
    spacings is approximately Poisson with mean λ = n³ / (4·2**m) — the
    approximation needs λ small, hence the standard n = 4096 against a
    full 32-bit year (λ = 4).  Repeats over the stream and aggregates
    the exact two-sided Poisson tail.
    """
    from scipy import stats

    w = np.asarray(words, dtype=np.uint64)
    reps = w.size // n_birthdays
    if reps < 4:
        raise ValueError("not enough words for the birthday test")
    lam = n_birthdays**3 / (4.0 * 2.0**m_bits)
    dup_counts = []
    for rep in range(reps):
        chunk = w[rep * n_birthdays : (rep + 1) * n_birthdays]
        days = np.sort(chunk >> np.uint64(32 - m_bits))
        spacings = np.sort(np.diff(days))
        duplicates = np.sum(spacings[1:] == spacings[:-1])
        dup_counts.append(int(duplicates))
    total = int(np.sum(dup_counts))
    # total over `reps` runs ~ Poisson(reps * lam)
    mean = reps * lam
    # two-sided exact Poisson p-value
    lo_tail = stats.poisson.cdf(total, mean)
    hi_tail = stats.poisson.sf(total - 1, mean)
    pval = float(min(1.0, 2.0 * min(lo_tail, hi_tail)))
    return TestOutcome("birthday_spacings", float(total), pval)


def run_battery(words: np.ndarray) -> list[TestOutcome]:
    """All tests on one word stream (>= ~2**16 words recommended)."""
    return [
        monobit_test(words),
        block_frequency_test(words),
        runs_test(words),
        serial_pairs_test(words),
        spectral_lag_test(words),
        gap_test(words),
        birthday_spacings_test(words),
    ]
