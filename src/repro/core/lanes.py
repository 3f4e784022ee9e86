"""Vectorized Monte Carlo lanes for the gamma kernel (bit-identical).

:class:`~repro.core.kernel.GammaRNGProcess` advances one MAINLOOP
iteration per Python ``tick()`` — faithful, but the per-iteration
Python cost dominates every simulation that runs the kernel.  This
module batches the iteration *mathematics* into numpy lane vectors
while leaving the *cycle semantics* (blocking writes, II bubbles,
sector advances, fast-path hints) untouched:

* :class:`GammaLaneStream` precomputes windows of MAINLOOP iteration
  outcomes — ``(ok, wrote, value, bubble_cycles)`` records plus sector
  advances — using :meth:`~repro.rng.mersenne.MersenneTwister.generate`
  (documented to continue the scalar stream exactly) and closed-form
  replays of the delayed-counter exit condition.  Each window is sized
  to what its sector still needs, so a sector usually costs one window
  of a few thousand lanes;
* :class:`VectorGammaRNGProcess` is a drop-in
  :class:`~repro.core.kernel.GammaRNGProcess` whose records come from
  those windows instead of the scalar pipeline; it keeps the inherited
  ``tick``, so the per-tick loop and the fused chains
  (:mod:`repro.core.chain`) step both classes the same way;
* :func:`gamma_process` is the one construction point for a gamma
  work-item.  :class:`~repro.core.decoupled.DecoupledWorkItems` and
  every pricing network (:mod:`repro.core.pricing`) build through it,
  so lanes run wherever the transform has them (``marsaglia_bray``)
  and the scalar kernel runs for the other transforms and as the
  differential oracle (``lanes=False``).

Bit-identity contract
---------------------
Every float is produced by the *same IEEE-754 double operations in the
same order* as the scalar path.  Elementwise ``+ - * /`` and
``np.sqrt`` on float64 arrays are bit-identical to their scalar
counterparts, but ``np.log`` and ``np.power`` are **not** guaranteed to
match libm — so the lanes that need a logarithm or the
``u2**(1/alpha)`` correction are evaluated with scalar ``math.log`` /
Python ``**`` (one call per lane, through ``map``) exactly like the
scalar kernel.  The differential suite
(``tests/core/test_vector_lanes.py``) asserts identical device memory,
reports, and RNG statistics across the paper configurations.

Gated twisters are replayed with peek semantics: a disabled step
outputs the *next unconsumed* word without advancing, so the uniform an
iteration sees is indexed by the exclusive running count of enabled
steps before it — no per-iteration Python calls required.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from repro.core.kernel import ADVANCE, GammaKernelConfig, GammaRNGProcess
from repro.core.stream import Stream
from repro.rng.gamma import marsaglia_tsang_constants
from repro.rng.icdf import IcdfFpga
from repro.rng.marsaglia_bray import POLAR_ACCEPTANCE
from repro.rng.uniform import uint_to_float, uint_to_symmetric

__all__ = [
    "GammaLaneStream",
    "VectorGammaRNGProcess",
    "gamma_process",
]

#: Most MAINLOOP iterations one refill computes, so a window's memory
#: stays bounded at any ``limit_main``.
MAX_WINDOW = 4096

#: Headroom of a window over the iterations its sector is expected to
#: need: at ``limit_main=2048`` four to six standard deviations of the
#: iterations the accepts take, so a sector rarely needs a second window.
WINDOW_SLACK = 1.0625

#: The one uniform→normal transform the lanes replay (the paper's
#: Table I FPGA design); every other transform runs the scalar kernel.
LANE_TRANSFORM = "marsaglia_bray"


def _logs(xs: np.ndarray) -> np.ndarray:
    """libm ``log`` per lane: ``np.log`` is not bit-identical to
    ``math.log``."""
    return np.fromiter(map(math.log, xs.tolist()), np.float64, xs.size)


class _BufferedMT:
    """Peek-ahead window over one Mersenne-Twister's word stream.

    ``generate()`` advances the underlying twister in bulk, at least one
    full state (``params.n`` words) per call; this buffer re-exposes the
    words with *peek/consume* semantics so gated (enable=False) steps
    can read the next unconsumed word without losing it — exactly what
    :meth:`~repro.rng.mersenne.MersenneTwister.next_u32` does one word
    at a time.
    """

    def __init__(self, mt):
        self._mt = mt
        self._state_words = mt.params.n
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` unconsumed words (buffer refills as needed)."""
        available = self._buf.size - self._pos
        if available < count:
            fresh = self._mt.generate(max(count - available, self._state_words))
            self._buf = np.concatenate([self._buf[self._pos :], fresh])
            self._pos = 0
        return self._buf[self._pos : self._pos + count]

    def consume(self, count: int) -> None:
        """Consume the next ``count`` words, generating any not yet
        peeked, so the next peek starts after them."""
        self.peek(count)
        self._pos += count


class GammaLaneStream:
    """Window-vectorized replay of the Listing 2 MAINLOOP.

    Yields, via :meth:`pop`, one record per kernel tick:

    * ``(ok, wrote, value, bubbles)`` for a MAINLOOP iteration — the
      acceptance flag, the guarded-write flag, the scaled gamma (only
      when written), and the gated-MT bubble cycles of the iteration;
    * the sector-advance sentinel for each exit-check tick.

    Each refill computes one window of iterations sized to what the
    sector still needs (see :meth:`_window`), so a sector usually costs
    one window.  The MAINLOOP exit condition is replayed in closed
    form: with the delayed counter the exit test at iteration ``i``
    reads the counter value as of ``break_id + 1`` iterations earlier,
    so a sector runs exactly ``min(limit_max, k_hit + 1 + break_id +
    1)`` iterations, where ``k_hit`` is the iteration producing the
    ``limit_main``-th accepted value (naive exit: ``min(limit_max,
    k_hit + 1)``).
    """

    def __init__(self, config: GammaKernelConfig, facades):
        if config.transform != LANE_TRANSFORM:
            raise ValueError(
                f"vectorized lanes support the {LANE_TRANSFORM} transform "
                f"only (got {config.transform!r}); use the scalar kernel"
            )
        self._cfg = config
        self._facades = facades  # (norm_a, norm_b, reject, correct)
        self._bufs = [_BufferedMT(f._mt) for f in facades]
        self._records = iter(())  # the current window's records, made as popped
        self._bubble = facades[0].bubble_cycles
        self._delay = config.break_id + 1 if config.use_delayed_counter else 0
        self._sector = 0
        self._consts = marsaglia_tsang_constants(1.0 / config.sector_variances[0])
        self._scale = config.sector_variances[0]
        self._k = 0  # iterations executed in the current sector
        self._oks = 0  # accepted iterations in the current sector
        self._k_hit: int | None = None  # iteration of the limit-th accept
        self._iterations = 0  # iterations executed over all sectors
        self._accepted = 0  # accepted iterations over all sectors
        self.finished = False

    # -- closed-form exit ----------------------------------------------------------

    def _exit_k(self) -> int:
        """Iterations the current sector executes before its exit tick."""
        cap = self._cfg.effective_limit_max
        if self._k_hit is None:
            return cap
        return min(cap, self._k_hit + 1 + self._delay)

    def _window(self, exit_k: int) -> int:
        """Iterations the next refill computes.

        Enough for the accepts the sector still needs at the acceptance
        the stream has measured (the polar step's before its first
        accept, an upper bound), with :data:`WINDOW_SLACK` headroom,
        plus the delayed counter's lag; capped at the sector's exit and
        at :data:`MAX_WINDOW`.  A window that falls short is followed by
        another; one that overshoots computes lanes it never executes,
        whose words stay unconsumed.
        """
        left = exit_k - self._k
        if self._k_hit is not None:
            return left  # only the lag after the limit-th accept is left
        rate = (
            self._accepted / self._iterations if self._accepted else POLAR_ACCEPTANCE
        )
        needed = self._cfg.limit_main - self._oks
        want = math.ceil(needed * WINDOW_SLACK / rate) + self._delay
        return min(left, want, MAX_WINDOW)

    # -- window generation ---------------------------------------------------------

    def _refill(self) -> None:
        cfg = self._cfg
        exit_k = self._exit_k()
        if self._k >= exit_k:
            # the next tick observes the exit condition: sector advance
            self._records = iter((ADVANCE,))
            self._sector += 1
            if self._sector >= cfg.sectors:
                self.finished = True
                return
            variance = cfg.sector_variances[self._sector]
            self._consts = marsaglia_tsang_constants(1.0 / variance)
            self._scale = variance
            self._k = 0
            self._oks = 0
            self._k_hit = None
            return

        window = self._window(exit_k)
        consts = self._consts
        limit = cfg.limit_main

        # Marsaglia-Bray normal candidates over the two free-running MTs
        wa = self._bufs[0].peek(window)
        wb = self._bufs[1].peek(window)
        u1s = uint_to_symmetric(wa).astype(np.float64)
        u2s = uint_to_symmetric(wb).astype(np.float64)
        s = u1s * u1s + u2s * u2s
        n0_valid = (s < 1.0) & (s != 0.0)
        n0 = np.zeros(window, dtype=np.float64)
        valid_idx = np.nonzero(n0_valid)[0]
        if valid_idx.size:
            sv = s[valid_idx]
            n0[valid_idx] = u1s[valid_idx] * np.sqrt((-2.0 * _logs(sv)) / sv)

        # gated rejection uniforms: iteration j peeks the word indexed
        # by the count of enabled (valid-normal) steps before it
        cum_valid = np.cumsum(n0_valid)
        excl_valid = cum_valid - n0_valid
        rej_words = self._bufs[2].peek(int(excl_valid[-1]) + 1)
        u1 = uint_to_float(rej_words[excl_valid]).astype(np.float64)

        # Marsaglia-Tsang attempt, op-for-op as gamma_attempt()
        t = 1.0 + consts.c * n0
        v = t * t * t
        t_pos = t > 0.0
        g_valid = t_pos & (u1 < 1.0 - 0.0331 * (n0 * n0) * (n0 * n0))
        full_idx = np.nonzero(t_pos & ~g_valid)[0]
        if full_idx.size:
            xs = n0[full_idx]
            vs = v[full_idx]
            accept = _logs(u1[full_idx]) < 0.5 * xs * xs + consts.d * (
                1.0 - vs + _logs(vs)
            )
            g_valid[full_idx[accept]] = True
        ok = n0_valid & g_valid

        # sector exit bookkeeping: locate the limit-th accept, then cut
        cum_ok = np.cumsum(ok)
        if self._k_hit is None:
            needed = limit - self._oks
            if needed <= int(cum_ok[-1]):
                local = int(np.searchsorted(cum_ok, needed))
                self._k_hit = self._k + local
                exit_k = self._exit_k()
        executed = min(window, exit_k - self._k)
        ok_e = ok[:executed]
        valid_e = n0_valid[:executed]
        excl_ok = cum_ok[:executed] - ok_e

        # guarded write: counter (= accepts so far this sector) < limit
        wrote = ok_e & (self._oks + excl_ok < limit)
        values = np.full(executed, None, dtype=object)
        write_idx = np.nonzero(wrote)[0]
        if write_idx.size:
            gammas = consts.d * v[write_idx]
            if consts.boosted:
                corr_words = self._bufs[3].peek(int(excl_ok[-1]) + 1)
                u2 = uint_to_float(corr_words[excl_ok[write_idx]]).tolist()
                # the scalar kernel's Python ``**`` per write: np.power
                # is not bit-identical to libm
                gammas = gammas * np.fromiter(
                    map(pow, u2, repeat(consts.inv_alpha)), np.float64, len(u2)
                )
            values[write_idx] = gammas * self._scale

        if self._bubble:
            bubbles = (
                self._bubble * ((~valid_e).astype(np.int64) + (~ok_e).astype(np.int64))
            ).tolist()
        else:
            bubbles = repeat(0)

        # commit exactly the words the executed iterations consumed
        n_valid = int(cum_valid[executed - 1])
        n_ok = int(cum_ok[executed - 1])
        self._bufs[0].consume(executed)
        self._bufs[1].consume(executed)
        self._bufs[2].consume(n_valid)
        self._bufs[3].consume(n_ok)
        norm_a, norm_b, reject, correct = self._facades
        norm_a.steps += executed
        norm_b.steps += executed
        reject.steps += executed
        reject.held += executed - n_valid
        correct.steps += executed
        correct.held += executed - n_ok
        self._k += executed
        self._oks += n_ok
        self._iterations += executed
        self._accepted += n_ok
        self._records = zip(ok_e.tolist(), wrote.tolist(), values.tolist(), bubbles)

    def pop(self):
        """The next tick's record (an iteration tuple or ``ADVANCE``)."""
        record = next(self._records, None)
        while record is None:
            self._refill()
            record = next(self._records, None)
        return record


class VectorGammaRNGProcess(GammaRNGProcess):
    """Drop-in gamma work-item consuming precomputed lane records.

    Identical cycle accounting, stream traffic, statistics, and output
    values to :class:`~repro.core.kernel.GammaRNGProcess` — only the
    per-iteration mathematics is hoisted into
    :class:`GammaLaneStream` windows, whose :meth:`~GammaLaneStream.pop`
    serves as the inherited ``tick``'s ``_next_record``.  Restricted to the
    ``marsaglia_bray`` transform (the paper's Table I FPGA design).
    """

    def __init__(
        self,
        name: str,
        wid: int,
        config: GammaKernelConfig,
        sink: Stream,
        icdf_table: IcdfFpga | None = None,
    ):
        super().__init__(name, wid, config, sink, icdf_table)
        self._lanes = GammaLaneStream(
            config,
            (self.mt_norm_a, self.mt_norm_b, self.mt_reject, self.mt_correct),
        )
        self._next_record = self._lanes.pop


def gamma_process(
    name: str,
    wid: int,
    config: GammaKernelConfig,
    sink: Stream,
    icdf_table: IcdfFpga | None = None,
    *,
    lanes: bool = True,
) -> GammaRNGProcess:
    """Build one gamma work-item; the only place that picks its class.

    :class:`VectorGammaRNGProcess` when ``lanes`` is set and the
    transform is ``marsaglia_bray``, the scalar
    :class:`~repro.core.kernel.GammaRNGProcess` otherwise.  Both
    produce bit-identical cycles, stream traffic and values, so
    ``lanes=False`` is the differential oracle, not a different model.
    """
    if lanes and config.transform == LANE_TRANSFORM:
        return VectorGammaRNGProcess(name, wid, config, sink, icdf_table)
    return GammaRNGProcess(name, wid, config, sink, icdf_table)
