"""Parameterized Mersenne-Twister (Matsumoto & Nishimura, paper ref [15]).

The paper's four configurations (Table I) use two Mersenne-Twister variants:

* exponent 19937 — the classic MT19937 (624 state words), and
* exponent 521 — a small-footprint twister with 17 state words, obtained
  through *dynamic creation* of parameter sets (paper ref [18]); on the
  FPGA it "requires a small amount of resources".

This module implements the twisted-GFSR recurrence generically over a
:class:`MTParams` record, with

* a scalar ``next_u32`` path whose state update can be *gated* by an
  external enable flag — the hook the adapted FPGA implementation
  (Listing 3) relies on, and
* a vectorized numpy block generator (``generate``) used by the
  statistical validation, the platform models and the vector lanes
  (:mod:`repro.core.lanes`), which computes a whole state twist with a
  few slice operations instead of a Python loop and continues the
  scalar stream exactly.

Both paths follow the sequential recurrence word for word, so with
:data:`MT19937_PARAMS` they are the reference MT19937: seed 5489 gives
4,123,659,995 as its 10,000th output, the value C++11 requires of
``std::mt19937``, and a 32-bit seed gives the words of
``numpy.random.RandomState(seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MTParams", "MT19937_PARAMS", "MT521_PARAMS", "MersenneTwister"]

_U32 = 0xFFFFFFFF


@dataclass(frozen=True)
class MTParams:
    """Complete parameter set of a width-``w`` Mersenne-Twister.

    The period of the generator is ``2**(n*w - r) - 1`` when the
    characteristic polynomial of the recurrence is primitive; ``n*w - r``
    is the *Mersenne exponent* quoted in Table I.
    """

    w: int  # word width in bits
    n: int  # number of state words
    m: int  # middle offset, 1 <= m < n
    r: int  # split point between upper/lower masks
    a: int  # twist (rational normal form) coefficient vector
    u: int  # tempering shift 1 (right)
    d: int  # tempering mask 1
    s: int  # tempering shift 2 (left)
    b: int  # tempering mask 2
    t: int  # tempering shift 3 (left)
    c: int  # tempering mask 3
    l: int  # tempering shift 4 (right)
    f: int = 1812433253  # Knuth-style initialization multiplier

    def __post_init__(self):
        if not (1 <= self.m < self.n):
            raise ValueError(f"m must satisfy 1 <= m < n, got m={self.m} n={self.n}")
        if not (0 <= self.r < self.w):
            raise ValueError(f"r must satisfy 0 <= r < w, got r={self.r} w={self.w}")

    @property
    def exponent(self) -> int:
        """Mersenne exponent p = n*w - r (the '19937' / '521' of Table I)."""
        return self.n * self.w - self.r

    @property
    def word_mask(self) -> int:
        return (1 << self.w) - 1

    @property
    def upper_mask(self) -> int:
        """Mask of the w - r most significant bits."""
        return (self.word_mask << self.r) & self.word_mask

    @property
    def lower_mask(self) -> int:
        """Mask of the r least significant bits."""
        return (1 << self.r) - 1


#: Classic MT19937 parameter set (period 2**19937 - 1, 624 state words).
MT19937_PARAMS = MTParams(
    w=32, n=624, m=397, r=31,
    a=0x9908B0DF,
    u=11, d=0xFFFFFFFF,
    s=7, b=0x9D2C5680,
    t=15, c=0xEFC60000,
    l=18,
)

#: Small twister with period 2**521 - 1 (17 state words), found with this
#: package's own dynamic-creation search
#: (``repro.rng.dynamic_creation.find_mt_params(exponent=521)``) and
#: verified primitive — 2**521 - 1 is a Mersenne prime, so irreducibility
#: of the characteristic polynomial suffices.  Tempering reuses the
#: MT19937 masks, which period-wise is irrelevant (tempering is a
#: bijection) and empirically passes the same statistical battery.
MT521_PARAMS = MTParams(
    w=32, n=17, m=6, r=23,
    a=0x97EE10D2,
    u=11, d=0xFFFFFFFF,
    s=7, b=0x9D2C5680,
    t=15, c=0xEFC60000,
    l=18,
)


class MersenneTwister:
    """Twisted-GFSR generator over an arbitrary :class:`MTParams` set.

    Parameters
    ----------
    params:
        Parameter record; defaults to MT19937.
    seed:
        Nonzero 32-bit seed for the Knuth-style state initialization.
    """

    def __init__(self, params: MTParams = MT19937_PARAMS, seed: int = 5489):
        self.params = params
        self._state = np.zeros(params.n, dtype=np.uint32)
        self._index = params.n  # forces a twist before the first output
        self.seed(seed)

    # -- state management -----------------------------------------------------

    def seed(self, seed: int) -> None:
        """(Re)initialize state from a 32-bit seed (MT2002 init scheme)."""
        p = self.params
        mask, f, shift = p.word_mask, p.f, p.w - 2
        prev = int(seed) & mask
        words = [prev]
        for i in range(1, p.n):
            prev = (f * (prev ^ (prev >> shift)) + i) & mask
            words.append(prev)
        self._state[:] = words
        self._index = p.n

    def get_state(self) -> tuple[np.ndarray, int]:
        """Snapshot of (state words copy, position index)."""
        return self._state.copy(), self._index

    def set_state(self, state: np.ndarray, index: int) -> None:
        """Restore a snapshot taken with :meth:`get_state`."""
        if state.shape != (self.params.n,):
            raise ValueError(
                f"state must have {self.params.n} words, got {state.shape}"
            )
        self._state = np.asarray(state, dtype=np.uint32).copy()
        self._index = index

    # -- core recurrence --------------------------------------------------------

    def _twist(self) -> None:
        """Regenerate all n state words with vectorized slices.

        Mirrors the sequential recurrence exactly.  Word ``i`` mixes the
        *old* ``x[i]`` and ``x[i+1]``, except that the final word reads
        the freshly updated ``x[0]``, so every other mix is one slice.
        It then XORs ``x[(i+m) % n]``, which for ``i >= n-m`` is a word
        updated earlier in the same twist.
        """
        p = self.params
        x = self._state
        n, m = p.n, p.m
        y = (x[: n - 1] & np.uint32(p.upper_mask)) | (x[1:] & np.uint32(p.lower_mask))
        mixed = (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * np.uint32(p.a))
        # i in [0, n-m): x[i+m] is not yet updated
        x[: n - m] = x[m:] ^ mixed[: n - m]
        # i in [n-m, n-1): x[i+m-n] is.  A slice reads before it writes,
        # so each chunk spans at most n-m words and reads only words
        # before it.
        for lo in range(n - m, n - 1, n - m):
            hi = min(lo + n - m, n - 1)
            x[lo:hi] = x[lo + m - n : hi + m - n] ^ mixed[lo:hi]
        # final word: wraps around to the freshly updated x[0]
        last = (int(x[n - 1]) & p.upper_mask) | (int(x[0]) & p.lower_mask)
        x[n - 1] = int(x[m - 1]) ^ (last >> 1) ^ (p.a if last & 1 else 0)
        self._index = 0

    def _temper(self, y: int) -> int:
        p = self.params
        y ^= (y >> p.u) & p.d
        y ^= (y << p.s) & p.b & p.word_mask
        y ^= (y << p.t) & p.c & p.word_mask
        y ^= y >> p.l
        return y & p.word_mask

    # -- scalar API (pipeline semantics) ------------------------------------------

    def peek_u32(self) -> int:
        """Current output word *without* consuming the state.

        This is the read half of the adapted Mersenne-Twister of
        Listing 3: the block computes its output every cycle, and a
        separate enable decides whether the state index advances.
        """
        if self._index >= self.params.n:
            self._twist()
        return self._temper(int(self._state[self._index]))

    def advance(self) -> None:
        """Consume the current state word (the 'enable' half of Listing 3)."""
        if self._index >= self.params.n:
            self._twist()
        self._index += 1

    def next_u32(self, enable: bool = True) -> int:
        """One generator step.

        With ``enable=False`` the output is produced but the state is NOT
        updated — exactly the external-flag behaviour the paper adds so
        that upstream rejection never discards uniform numbers
        (Section III-C: "these blocks are allowed to run continuously,
        using an external flag to enable the internal state update").
        """
        y = self.peek_u32()
        if enable:
            self._index += 1
        return y

    # -- vectorized API ------------------------------------------------------------

    def generate(self, count: int) -> np.ndarray:
        """Generate ``count`` tempered uint32 words (vectorized).

        Continues from the scalar position, so interleaving scalar and
        block generation yields the same stream as scalar-only use.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        p = self.params
        out = np.empty(count, dtype=np.uint32)
        filled = 0
        while filled < count:
            if self._index >= p.n:
                self._twist()
            take = min(count - filled, p.n - self._index)
            out[filled : filled + take] = self._state[
                self._index : self._index + take
            ]
            self._index += take
            filled += take
        # vectorized tempering
        y = out
        y ^= (y >> np.uint32(p.u)) & np.uint32(p.d)
        y ^= (y << np.uint32(p.s)) & np.uint32(p.b)
        y ^= (y << np.uint32(p.t)) & np.uint32(p.c)
        y ^= y >> np.uint32(p.l)
        return y

    def generate_floats(self, count: int) -> np.ndarray:
        """``count`` float32 uniforms in (0, 1) via :func:`uint_to_float`."""
        from repro.rng.uniform import uint_to_float

        return uint_to_float(self.generate(count))
