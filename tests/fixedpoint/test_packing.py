"""Tests for 512-bit word packing (Transfer block, Section III-D)."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fixedpoint import (
    FLOATS_PER_WORD,
    WORD_BITS,
    bits_to_float,
    float_to_bits,
    pack_floats,
    unpack_floats,
)


class TestConstants:
    def test_word_is_512_bits(self):
        assert WORD_BITS == 512

    def test_sixteen_floats_per_word(self):
        assert FLOATS_PER_WORD == 16


class TestBitCast:
    def test_one_point_zero(self):
        assert float_to_bits(1.0) == 0x3F800000

    def test_minus_two(self):
        assert float_to_bits(-2.0) == 0xC0000000

    def test_roundtrip(self):
        for v in [0.0, 1.5, -3.25, 1e-30, 2.5e20]:
            assert bits_to_float(float_to_bits(v)) == np.float32(v)


class TestPacking:
    def test_exact_word(self):
        vals = np.arange(16, dtype=np.float32)
        words = pack_floats(vals)
        assert len(words) == 1
        assert words[0].width == WORD_BITS

    def test_lane0_in_lsbs(self):
        vals = np.zeros(16, dtype=np.float32)
        vals[0] = 1.0
        word = pack_floats(vals)[0]
        assert int(word) & 0xFFFFFFFF == 0x3F800000

    def test_lane15_in_msbs(self):
        vals = np.zeros(16, dtype=np.float32)
        vals[15] = 1.0
        word = pack_floats(vals)[0]
        assert (int(word) >> (32 * 15)) & 0xFFFFFFFF == 0x3F800000

    def test_padding_to_word(self):
        words = pack_floats(np.ones(5, dtype=np.float32))
        assert len(words) == 1
        out = unpack_floats(words)
        assert np.all(out[:5] == 1.0)
        assert np.all(out[5:] == 0.0)

    def test_multiple_words(self):
        assert len(pack_floats(np.zeros(33))) == 3

    def test_empty(self):
        assert pack_floats(np.array([], dtype=np.float32)) == []

    def test_unpack_count(self):
        vals = np.arange(20, dtype=np.float32)
        out = unpack_floats(pack_floats(vals), count=20)
        np.testing.assert_array_equal(out, vals)

    def test_unpack_accepts_plain_ints(self):
        out = unpack_floats([0x3F800000], count=1)
        assert out[0] == 1.0

    def test_word_every_16th_value(self):
        """A word completes at every 16th value (the ``g512`` tFlag)."""
        words = pack_floats([float(i) for i in range(32)])
        assert len(words) == 2
        np.testing.assert_array_equal(
            unpack_floats(words[1:]), np.arange(16, 32, dtype=np.float32)
        )

    def test_word_contents(self):
        raw = int(pack_floats([float(i) for i in range(16)])[0])
        lanes = [(raw >> (32 * k)) & 0xFFFFFFFF for k in range(16)]
        floats = np.array(lanes, dtype=np.uint32).view(np.float32)
        np.testing.assert_array_equal(floats, np.arange(16, dtype=np.float32))

    def test_words_start_empty(self):
        """Nothing carries over from one word into the next."""
        words = pack_floats([-1.0] * 16 + [1.0] * 16)
        assert words[1] == pack_floats([1.0] * 16)[0]


#: doubles whose float32 bit pattern the Transfer block must keep exactly
_SPECIAL = [
    0.0,
    -0.0,
    1e-40,  # float32 subnormal
    -1e-45,  # smallest float32 subnormal (rounded)
    5e-324,  # a double subnormal: rounds to +0 in float32
    float("inf"),
    float("-inf"),
    float("nan"),
    struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0],  # sNaN
    3.4028234663852886e38,  # float32 max
    -3.4028234663852886e38,
]


@pytest.mark.parametrize("value", _SPECIAL, ids=repr)
def test_pack_floats_matches_bit_cast(value):
    """``pack_floats`` keeps :func:`float_to_bits`'s pattern bit for bit."""
    word = int(pack_floats([value])[0])
    assert word & 0xFFFFFFFF == float_to_bits(value)
    assert word >> 32 == 0  # the padding lanes stay zero


@pytest.mark.parametrize("value", [1e300, -1e300, 3.5e38])
def test_out_of_range_double_packs_as_inf_but_bit_cast_raises(value):
    """The one difference: a finite double beyond float32 range packs as
    an infinity, where ``float_to_bits`` raises."""
    with np.errstate(over="ignore"):
        word = int(pack_floats([value])[0])
    assert word == (0x7F800000 if value > 0 else 0xFF800000)
    with pytest.raises(OverflowError):
        float_to_bits(value)


@given(
    arr=hnp.arrays(
        np.float32,
        st.integers(min_value=0, max_value=200),
        elements=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, width=32
        ),
    )
)
def test_prop_pack_unpack_roundtrip(arr):
    out = unpack_floats(pack_floats(arr), count=arr.size)
    np.testing.assert_array_equal(out, arr)


@given(n=st.integers(min_value=0, max_value=300))
def test_prop_word_count_is_ceil(n):
    words = pack_floats(np.zeros(n, dtype=np.float32))
    assert len(words) == -(-n // FLOATS_PER_WORD)
