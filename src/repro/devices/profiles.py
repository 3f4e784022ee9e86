"""Kernel cost profiles: the Listing 2 attempt, segment by segment.

A fixed-architecture work-item executes the same nested-rejection
attempt as the FPGA pipeline, but in *lockstep* with its hardware
partition: a divergent segment runs (and bills every lane) whenever ANY
lane of the partition needs it (Fig 2b).  Profiles therefore describe
each attempt as

* unconditional segments (lane probability 1.0), and
* divergent segments with a per-lane execution probability, promoted to
  a per-partition probability ``1 - (1 - p)**width`` by the partition
  model.

Per-lane probabilities are *measured*, not hand-waved: a seeded numpy
draw of normal candidates (Marsaglia-Bray polar pairs, or normal
quantiles of uniforms for the ICDF paths) goes through the
Marsaglia-Tsang attempt test, written out vectorized here rather than
taken from :mod:`repro.rng`.  The Marsaglia-Bray acceptance comes out
≈ π/4, and the squeeze-miss rate is counted per sector variance.  A
process draws each normal family once and keeps only its squeeze
misses, the candidates whose outcome a variance can change
(:func:`measured_path_rates`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.rng.erfinv import CENTRAL_W_LIMIT
from repro.rng.gamma import marsaglia_tsang_constants
from repro.rng.icdf import normal_quantile

__all__ = [
    "Segment",
    "AttemptProfile",
    "attempt_profile",
    "measured_path_rates",
    "PathRates",
]


@dataclass(frozen=True)
class Segment:
    """One straight-line piece of the attempt body.

    ``vectorizable=False`` marks code the implicit vectorizers of the
    CPU/Xeon Phi OpenCL runtimes cannot keep in SIMD form (leading-zero
    counts, data-dependent shifts, gathers — the bit-level ICDF of
    Section II-D3): such a segment executes once per *lane* instead of
    once per partition on those platforms.  GPUs are SIMT and keep
    per-lane control flow in hardware, so the flag does not apply there.
    """

    name: str
    ops: dict
    lane_probability: float = 1.0
    vectorizable: bool = True

    def __post_init__(self):
        if not 0.0 <= self.lane_probability <= 1.0:
            raise ValueError(
                f"segment {self.name!r}: probability must lie in [0, 1]"
            )


@dataclass(frozen=True)
class AttemptProfile:
    """Full cost description of one MAINLOOP attempt.

    ``accept_prob`` is the probability that one attempt yields a valid
    output — the (1+r) attempt inflation of Eq (1) is ``1/accept_prob``.
    """

    name: str
    segments: tuple[Segment, ...]
    accept_prob: float
    output_bytes: int = 4  # one float32 gamma RN per accepted attempt

    def __post_init__(self):
        if not 0.0 < self.accept_prob <= 1.0:
            raise ValueError("accept probability must lie in (0, 1]")

    @property
    def rejection_rate(self) -> float:
        return 1.0 - self.accept_prob

    @property
    def attempts_per_output(self) -> float:
        return 1.0 / self.accept_prob


@dataclass(frozen=True)
class PathRates:
    """Measured per-lane path statistics of the nested generator."""

    normal_accept: float  # P(valid normal candidate)
    gamma_accept: float  # P(gamma accepted | valid normal)
    squeeze_miss: float  # P(full log test needed | valid normal)
    cube_negative: float  # P((1 + c x)^3 <= 0)
    erfinv_tail: float  # P(Giles tail polynomial) — ICDF paths only

    @property
    def combined_accept(self) -> float:
        return self.normal_accept * self.gamma_accept


@dataclass(frozen=True)
class _NormalDraw:
    """One seeded draw of a normal family, cut to what a variance can change.

    The polar family is Marsaglia-Bray pairs.  The quantile family is
    :func:`~repro.rng.icdf.normal_quantile` of uniforms: numpy's AS241,
    within 7 ULP of ``scipy.special.ndtri`` over the default draw, and
    the rates it yields equal the ``norm.ppf`` ones at every pinned
    variance, so no serving process loads scipy to price an ICDF key.

    A squeeze pass needs ``0.0331 x**4 < 1``, so ``|x| < 2.35``, and every
    shape has ``c <= 1/sqrt(6)`` (``alpha`` is boosted to at least 1), so
    ``1 + c x > 0.04`` there: a squeeze pass is an accept at every
    variance.  The draw counts those and keeps only the squeeze misses.
    """

    normal_accept: float
    erfinv_tail: float
    candidates: int  # valid normal candidates
    squeeze_passes: int
    x: np.ndarray  # the squeeze misses' normals
    u: np.ndarray  # and their rejection uniforms


_FAMILIES = {"marsaglia_bray": "polar", "icdf_cuda": "quantile", "icdf_fpga": "quantile"}
_DRAW_LOCK = threading.Lock()


@lru_cache(maxsize=8)
def _normal_draw(family: str, samples: int, seed: int) -> _NormalDraw:
    draw = _draw_squeeze_misses(family, samples, seed)
    # copied once the full-size temporaries are freed, the kept arrays sit
    # low in the heap instead of pinning its top: a serving process that
    # kept the slices peaked about 8 MB higher
    return replace(draw, x=draw.x.copy(), u=draw.u.copy())


def _draw_squeeze_misses(family: str, samples: int, seed: int) -> _NormalDraw:
    rng = np.random.default_rng(seed)
    if family == "polar":
        u1 = rng.uniform(-1.0, 1.0, samples)
        u2 = rng.uniform(-1.0, 1.0, samples)
        s = u1 * u1 + u2 * u2
        valid = (s > 0.0) & (s < 1.0)
        normal_accept = float(np.mean(valid))
        s = s[valid]
        x = u1[valid] * np.sqrt(-2.0 * np.log(s) / s)
        erfinv_tail = 0.0
    else:
        u = rng.random(samples)
        normal_accept = 1.0  # rejection-free at the modeled table depth
        x = normal_quantile(u)
        arg = 2.0 * u - 1.0
        w = -np.log((1.0 - arg) * (1.0 + arg))
        erfinv_tail = float(np.mean(w >= CENTRAL_W_LIMIT))
    u_rej = rng.random(x.size)
    miss = ~(u_rej < 1.0 - 0.0331 * (x * x) * (x * x))
    return _NormalDraw(
        normal_accept=normal_accept,
        erfinv_tail=erfinv_tail,
        candidates=x.size,
        squeeze_passes=x.size - int(np.count_nonzero(miss)),
        x=x[miss],
        u=u_rej[miss],
    )


@lru_cache(maxsize=64)
def measured_path_rates(
    transform: str, variance: float, samples: int = 400_000, seed: int = 1234
) -> PathRates:
    """Measure the branch statistics of one transform at one variance.

    ``samples`` seeded normal candidates (Marsaglia-Bray polar pairs, or
    :func:`~repro.rng.icdf.normal_quantile` of uniforms for both ICDF
    transforms) each get one Marsaglia-Tsang attempt.  The draw does not
    depend on the variance, so a process makes it once per normal family
    and ``(samples, seed)``, under a lock so that concurrent first
    callers share it, and keeps only its squeeze misses (about 8 %, see
    :class:`_NormalDraw`); each variance runs the cube and log test on
    those alone.
    """
    if transform not in _FAMILIES:
        raise ValueError(f"unknown transform {transform!r}")
    with _DRAW_LOCK:
        draw = _normal_draw(_FAMILIES[transform], samples, seed)
    consts = marsaglia_tsang_constants(1.0 / variance)
    x, u = draw.x, draw.u
    t = 1.0 + consts.c * x
    v = t * t * t
    positive = t > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        full_pass = np.log(u) < 0.5 * x * x + consts.d * (
            1.0 - v + np.log(np.where(positive, v, 1.0))
        )
    squeeze_misses = int(np.count_nonzero(positive))
    accepted = draw.squeeze_passes + int(np.count_nonzero(positive & full_pass))
    return PathRates(
        normal_accept=draw.normal_accept,
        gamma_accept=accepted / draw.candidates,
        squeeze_miss=squeeze_misses / draw.candidates,
        cube_negative=(x.size - squeeze_misses) / draw.candidates,
        erfinv_tail=draw.erfinv_tail,
    )


# op bundles (counts chosen from the actual arithmetic of repro.rng)
_MB_ALWAYS = {"mt_draw": 2, "flop": 6}  # 2 uniforms, s = u1²+u2², compares
_MB_ACCEPT = {"log": 1, "div": 1, "sqrt": 1, "flop": 3}
_ICDF_CUDA_ALWAYS = {"mt_draw": 1, "flop": 22, "log": 1}  # Giles central: 9 FMA + mul chain
_ICDF_CUDA_TAIL = {"sqrt": 1, "flop": 18}
# bit-level ICDF emulated with 32-bit shift/and/or masking (§II-D3): the
# LZC cascade, field extraction, coefficient gather, fixed-point MAC
_ICDF_FPGA_ALWAYS = {"mt_draw": 1, "lzc": 1, "int_op": 28, "gather": 1, "flop": 4}
_GAMMA_ALWAYS = {"mt_draw": 1, "flop": 12}  # u1 draw, cube, squeeze poly, compares
_GAMMA_FULLTEST = {"log": 2, "flop": 6}
_CORRECTION = {"mt_draw": 1, "pow": 1, "flop": 3}  # u2 draw, u2**(1/alpha)
_OUTPUT_STORE = {"flop": 1, "int_op": 2}  # coalesced store + index bump


def attempt_profile(
    transform: str,
    variance: float = 1.39,
    icdf_style: str = "cuda",
) -> AttemptProfile:
    """Build the per-attempt cost profile for a Table I configuration.

    Parameters
    ----------
    transform:
        ``"marsaglia_bray"`` or ``"icdf"`` (Table I column 2).
    variance:
        Sector variance (drives the gamma branch statistics).
    icdf_style:
        ``"cuda"`` or ``"fpga"`` — the two ICDF implementations whose
        runtimes Table III contrasts on fixed architectures.
    """
    if transform == "marsaglia_bray":
        rates = measured_path_rates("marsaglia_bray", variance)
        segments = [
            Segment("mb_always", _MB_ALWAYS),
            Segment("mb_accept", _MB_ACCEPT, rates.normal_accept),
        ]
        name = "marsaglia_bray"
    elif transform == "icdf":
        key = "icdf_cuda" if icdf_style == "cuda" else "icdf_fpga"
        rates = measured_path_rates(key, variance)
        if icdf_style == "cuda":
            segments = [
                Segment("icdf_always", _ICDF_CUDA_ALWAYS),
                Segment("icdf_tail", _ICDF_CUDA_TAIL, rates.erfinv_tail),
            ]
            name = "icdf_cuda_style"
        elif icdf_style == "fpga":
            # the 32-bit shift/and/or emulation defeats implicit
            # vectorization — "this modification becomes inefficient in
            # terms of runtime, especially on CPU and Xeon Phi" (§II-D3)
            segments = [
                Segment("icdf_bitlevel", _ICDF_FPGA_ALWAYS, vectorizable=False)
            ]
            name = "icdf_fpga_style"
        else:
            raise ValueError(f"unknown icdf_style {icdf_style!r}")
    else:
        raise ValueError(
            f"unknown transform {transform!r}; use 'marsaglia_bray' or 'icdf'"
        )

    consts = marsaglia_tsang_constants(1.0 / variance)
    segments.append(Segment("gamma_always", _GAMMA_ALWAYS))
    segments.append(Segment("gamma_fulltest", _GAMMA_FULLTEST, rates.squeeze_miss))
    if consts.boosted:
        segments.append(Segment("correction", _CORRECTION))
    segments.append(
        Segment("output_store", _OUTPUT_STORE, rates.combined_accept)
    )
    return AttemptProfile(
        name=name,
        segments=tuple(segments),
        accept_prob=rates.combined_accept,
    )
