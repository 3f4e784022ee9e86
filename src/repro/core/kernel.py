"""The test-case kernel: pipelined nested gamma RNG (Listing 2).

One :class:`GammaRNGProcess` is the cycle-level model of the paper's
``GammaRNG`` function — a single fully-pipelined block that per
MAINLOOP iteration:

1. shifts the delayed exit counter (``UpdateRegUI``),
2. produces a normal candidate via Marsaglia-Bray or an ICDF transform,
   with the feeding Mersenne-Twisters gated per Listing 3,
3. runs one Marsaglia-Tsang attempt with a gated rejection uniform,
4. always evaluates the alpha<1 correction with a gated third uniform,
5. writes the validated (and possibly corrected) gamma to the blocking
   output stream, guarded by ``counter < limitMain``.

The loop nest is ``SECLOOP`` over financial sectors around ``MAINLOOP``
over attempts; the MAINLOOP exit reads the *delayed* counter so the
pipeline sustains II=1 (Section III-B).  Setting
``use_delayed_counter=False`` models the naive exit (II rises to
:data:`~repro.core.delayed_counter.NAIVE_EXIT_II`), and
``adapted_mt=False`` models unmodified gated twisters (a pipeline
bubble per suppressed update) — the two ablations of DESIGN.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.delayed_counter import NAIVE_EXIT_II, DelayedCounter
from repro.core.mt_adapted import AdaptedMT, NaiveGatedMT
from repro.core.process import NO_SELF_EVENT, Process
from repro.core.stream import Stream
from repro.rng.gamma import gamma_attempt, gamma_correct, marsaglia_tsang_constants
from repro.rng.icdf import IcdfFpga, icdf_cuda_style
from repro.rng.box_muller import box_muller_pair
from repro.rng.marsaglia_bray import marsaglia_bray_attempt
from repro.rng.mersenne import MTParams, MT19937_PARAMS
from repro.rng.uniform import uint_to_float, uint_to_symmetric

__all__ = ["ADVANCE", "GammaKernelConfig", "GammaRNGProcess", "TRANSFORMS"]

#: The record of a MAINLOOP exit-check tick (a sector advance), which
#: consumes no RNG words; every other tick's record is an iteration
#: tuple (see :meth:`GammaRNGProcess._next_record`).
ADVANCE = object()


@lru_cache(maxsize=8)
def _mt_family(exponent: int) -> tuple[MTParams, ...]:
    """Four distinct maximal-period parameter sets for one exponent."""
    from repro.rng.dynamic_creation import find_mt_family

    return tuple(find_mt_family(exponent, count=4))

#: Supported uniform→normal transforms: the two Table I families, the
#: CUDA-style ICDF of §II-D3, and the Box-Muller baseline the paper
#: cites as the method Marsaglia-Bray avoids (rejection-free but heavy
#: on trigonometric cores).
TRANSFORMS = ("marsaglia_bray", "icdf_fpga", "icdf_cuda", "box_muller")


@dataclass(frozen=True)
class GammaKernelConfig:
    """Static configuration of one GammaRNG work-item.

    Parameters mirror Listing 2's interface: sector count and variances,
    the per-sector output quota ``limit_main``, the iteration safety cap
    ``limit_max``, and the design knobs under ablation.
    """

    transform: str = "marsaglia_bray"
    mt_params: MTParams = MT19937_PARAMS
    sector_variances: tuple[float, ...] = (1.39,)
    limit_main: int = 64  # accepted RNs per sector (limitMain)
    limit_max: int | None = None  # MAINLOOP hard cap (limitMax)
    break_id: int = 0
    use_delayed_counter: bool = True
    adapted_mt: bool = True
    seed: int = 20170529
    #: True gives every twister in the Fig 4 pipeline its OWN
    #: dynamically-created parameter set (paper §II-D2: "split into two
    #: parallel Mersenne-Twisters following [18]") instead of one
    #: parameter set at different seeds.  The family search runs once
    #: per exponent and is cached.
    mt_family: bool = False

    def __post_init__(self):
        if self.transform not in TRANSFORMS:
            raise ValueError(
                f"unknown transform {self.transform!r}; pick one of {TRANSFORMS}"
            )
        if not self.sector_variances:
            raise ValueError("at least one sector variance is required")
        if any(v <= 0 for v in self.sector_variances):
            raise ValueError("sector variances must be positive")
        if self.limit_main < 1:
            raise ValueError("limit_main must be >= 1")
        if self.limit_max is not None and self.limit_max < self.limit_main:
            raise ValueError("limit_max cannot be below limit_main")

    @property
    def sectors(self) -> int:
        return len(self.sector_variances)

    @property
    def effective_limit_max(self) -> int:
        """Default hard cap: generous headroom over the expected attempts."""
        return self.limit_max if self.limit_max is not None else self.limit_main * 16

    @property
    def total_outputs(self) -> int:
        return self.sectors * self.limit_main

    @property
    def ii(self) -> int:
        """Initiation interval implied by the exit-condition style."""
        return 1 if self.use_delayed_counter else NAIVE_EXIT_II


class GammaRNGProcess(Process):
    """Cycle-level Listing 2 work-item.

    Parameters
    ----------
    name, wid:
        Process identity; ``wid`` offsets the RNG seeds so decoupled
        work-items draw independent streams (the paper seeds each
        work-item's twisters with distinct dynamic-creation streams).
    config:
        Static kernel configuration.
    sink:
        Output ``hls::stream`` toward the paired Transfer engine.
    icdf_table:
        Optional shared :class:`~repro.rng.icdf.IcdfFpga` ROM (built once
        and reused across work-items, like the synthesized BRAM table).
    """

    def __init__(
        self,
        name: str,
        wid: int,
        config: GammaKernelConfig,
        sink: Stream,
        icdf_table: IcdfFpga | None = None,
    ):
        super().__init__(name)
        self.wid = wid
        self.config = config
        self.sink = sink
        mt_cls = AdaptedMT if config.adapted_mt else NaiveGatedMT
        base = config.seed + 7919 * wid
        # role-separated streams, one twister per uniform stream (Fig 4);
        # with mt_family each role gets a distinct dynamically-created
        # parameter set (ref [18]), otherwise distinct seeds suffice
        if config.mt_family:
            params = _mt_family(config.mt_params.exponent)
        else:
            params = (config.mt_params,) * 4
        self.mt_norm_a = mt_cls(params[0], seed=base + 1)
        self.mt_norm_b = mt_cls(params[1], seed=base + 2)
        self.mt_reject = mt_cls(params[2], seed=base + 3)
        self.mt_correct = mt_cls(params[3], seed=base + 4)
        self._icdf = icdf_table
        if config.transform == "icdf_fpga" and self._icdf is None:
            self._icdf = IcdfFpga()
        # loop state
        self._sector = 0
        self._k = 0
        self._counter = DelayedCounter(config.break_id)
        self._consts = marsaglia_tsang_constants(
            1.0 / config.sector_variances[0]
        )
        self._scale = config.sector_variances[0]
        self._done = False
        self._pending: float | None = None
        self._stall_budget = 0
        # statistics
        self.outputs_produced = 0
        self.attempts = 0
        self.accepts = 0
        self.overrun_iterations = 0
        self.produced: list[float] = []
        # fast-path hints describe THIS tick implementation; a subclass
        # overriding tick() falls back to the reference loop
        self._hintable = type(self).tick is GammaRNGProcess.tick

    # -- dataflow wiring -----------------------------------------------------------

    def outputs(self) -> tuple[Stream, ...]:
        return (self.sink,)

    def done(self) -> bool:
        return self._done

    def stall_reason(self) -> str | None:
        if self._stall_budget > 0:
            return "pipeline"  # II bubble / gated-MT flush cycle
        return None

    # -- cycle-skipping fast path ----------------------------------------------------

    def next_event(self, cycle: int) -> int | float | None:
        if not self._hintable or self._done:
            return None
        if self._pending is not None:
            if self.sink.full():
                return NO_SELF_EVENT  # frozen on the blocking write
            return None  # write lands next tick
        if self._stall_budget > 0:
            return cycle + self._stall_budget  # deterministic II/flush bubbles
        return None

    def skip_cycles(self, cycle: int, count: int) -> None:
        if self._pending is not None:
            # blocked write: one failing can_write() poll per cycle
            self.sink.credit_write_stalls(count, cycle + count - 1)
            self.stats.cycles += count
            self.stats.stall_cycles += count
            return
        self._stall_budget -= count
        self.stats.cycles += count
        self.stats.pipeline_cycles += count

    # -- helpers --------------------------------------------------------------------

    def _enter_sector(self, sector: int) -> None:
        variance = self.config.sector_variances[sector]
        self._consts = marsaglia_tsang_constants(1.0 / variance)
        self._scale = variance
        self._counter.reset()
        self._k = 0

    def _normal_candidate(self) -> tuple[float, bool]:
        """One uniform→normal attempt per the configured transform."""
        transform = self.config.transform
        if transform == "marsaglia_bray":
            u1 = uint_to_symmetric(self.mt_norm_a(True))
            u2 = uint_to_symmetric(self.mt_norm_b(True))
            return marsaglia_bray_attempt(u1, u2)
        if transform == "icdf_fpga":
            return self._icdf.evaluate(self.mt_norm_a(True))
        if transform == "box_muller":
            u1 = uint_to_float(self.mt_norm_a(True))
            u2 = uint_to_float(self.mt_norm_b(True))
            z0, _ = box_muller_pair(u1, u2)
            return z0, True
        # icdf_cuda: rejection-free
        u = uint_to_float(self.mt_norm_a(True))
        return icdf_cuda_style(u), True

    # -- the pipeline ------------------------------------------------------------------

    def _next_record(self):
        """The record of the next MAINLOOP tick.

        :data:`ADVANCE` when the exit condition (evaluated at the top,
        Listing 2) ends the sector, else ``(ok, wrote, value, bubbles)``:
        the acceptance flag, the guarded-write flag, the scaled gamma
        (``None`` unless written) and the gated-MT bubble cycles.  This
        is the scalar pipeline; :class:`~repro.core.lanes.VectorGammaRNGProcess`
        reads the same records from precomputed lane blocks.  Depends on
        ``_k`` and the sector state, which :meth:`tick` advances.
        """
        cfg = self.config
        exit_counter = (
            self._counter.delayed if cfg.use_delayed_counter else self._counter.value
        )
        if self._k >= cfg.effective_limit_max or exit_counter >= cfg.limit_main:
            return ADVANCE

        self._counter.shift()  # UpdateRegUI
        n0, n0_valid = self._normal_candidate()
        u1 = uint_to_float(self.mt_reject(n0_valid))
        g_value, g_valid = gamma_attempt(n0, u1, self._consts)
        ok = n0_valid and g_valid
        u2 = uint_to_float(self.mt_correct(ok))
        corrected = gamma_correct(g_value, u2, self._consts)
        gamma = corrected if self._consts.boosted else g_value

        # guarded write; an accepted iteration past the quota is still in
        # flight because the exit test reads the delayed counter, and the
        # guard drops it
        wrote = ok and self._counter.value < cfg.limit_main
        value = None
        if wrote:
            value = gamma * self._scale
            self._counter.increment()

        # gated-MT flush bubbles (the adapted_mt ablation)
        bubbles = 0
        if not cfg.adapted_mt:
            gates = (True, True, n0_valid, ok)  # norm MTs free-run
            bubbles = sum(
                mt.bubble_cycles
                for mt, g in zip(
                    (self.mt_norm_a, self.mt_norm_b, self.mt_reject, self.mt_correct),
                    gates,
                )
                if not g
            )
        return ok, wrote, value, bubbles

    def _advance_sector(self) -> None:
        """The exit-check tick: enter the next sector, or finish and
        close the sink after the last one."""
        self._sector += 1
        if self._sector >= self.config.sectors:
            self._done = True
            self.sink.close()
        else:
            self._enter_sector(self._sector)

    def tick(self, cycle: int) -> bool:
        if self._done:
            return self._account(False)

        # a completed iteration is waiting on a full output stream:
        # the whole pipeline freezes (hls::stream blocking write)
        if self._pending is not None:
            if not self.sink.can_write(cycle):
                self._account(False)
                return False  # genuinely blocked; deadlock-detectable
            self.sink.write(self._pending)
            self._pending = None
            return self._account(True)

        # II bubbles / naive-MT flush cycles: time passes by design,
        # not a deadlock — accounted in the dedicated pipeline bucket
        if self._stall_budget > 0:
            self._stall_budget -= 1
            return self._account_bubble()

        record = self._next_record()
        if record is ADVANCE:
            self._advance_sector()
            return self._account(True)

        # ---- one MAINLOOP iteration ----
        ok, wrote, value, bubbles = record
        self.attempts += 1
        self.stats.iterations += 1
        if wrote:
            self.accepts += 1
            self.produced.append(value)
            self.outputs_produced += 1
            if self.sink.can_write(cycle):
                self.sink.write(value)
            else:
                self._pending = value
        elif ok:
            self.overrun_iterations += 1
        self._k += 1
        # pipeline-cost bookkeeping for the ablations
        self._stall_budget = self.config.ii - 1 + bubbles
        return self._account(True)

    # -- reporting ------------------------------------------------------------------

    @property
    def measured_rejection_rate(self) -> float:
        """Fraction of MAINLOOP iterations not yielding a valid output."""
        if self.attempts == 0:
            return 0.0
        return 1.0 - self.accepts / self.attempts
