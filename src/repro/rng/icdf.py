"""Inverse-CDF uniform → normal transforms (Section II-D3).

Two implementations, mirroring the paper's two code paths:

* :func:`icdf_cuda_style` — "a modified version of Nvidia's
  ``_curand_normal_icdf`` function", i.e. ``sqrt(2) * erfinv(2u - 1)``
  with Giles' branch-minimized erfinv.  This is the fast variant on
  CPU/GPU/Xeon Phi ("ICDF CUDA-style" rows of Table III).

* :class:`IcdfFpga` / :func:`icdf_fpga_style` — a bit-level fixed-point
  evaluation following de Schryver et al. (paper ref [19]): hierarchical
  *exponential segmentation* of the probability axis selected by a
  leading-zero count, uniform subsegments inside each segment, and a
  linear fixed-point interpolation per subsegment.  On an FPGA the whole
  thing is wiring, a small ROM and one multiplier; emulated with 32-bit
  shift/and/or masking on fixed architectures it is painfully slow —
  the paper's "ICDF FPGA-style" rows show ~3.5-5x slowdowns on CPU/Phi.

The FPGA path reports a validity flag: inputs falling beyond the deepest
segment of the table (probability ≈ 2**-(SEGMENTS+1)) cannot be resolved
at the implemented precision and are *rejected*, which is why Listing 2
guards ``ICDF`` with the same ``n0_valid`` mechanism as Marsaglia-Bray.

:func:`normal_quantile` is the exact float64 quantile behind the FPGA
ROM and behind the ICDF normals whose branch rates
:func:`repro.devices.measured_path_rates` measures.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fixedpoint import ApFixed, ApUInt

from repro.rng.erfinv import erfinv

__all__ = [
    "normal_quantile",
    "icdf_cuda_style",
    "icdf_fpga_style",
    "IcdfFpga",
    "ICDF_SEGMENTS",
    "ICDF_SUBSEG_BITS",
    "ICDF_FRAC_BITS",
]

_SQRT2 = math.sqrt(2.0)

#: number of exponential segments covering p in (2**-(S+1), 0.5]
ICDF_SEGMENTS = 28
#: log2 of the uniform subsegments inside each exponential segment
ICDF_SUBSEG_BITS = 6
#: fixed-point format of the stored coefficients: ApFixed<32, 32-FRAC>
ICDF_FRAC_BITS = 24

# Wichura's AS241 (PPND16) rational approximations, highest power
# first, digit for digit as statistics.NormalDist.inv_cdf writes them.
# Central region |p - 0.5| <= 0.425, in r = 0.180625 - (p - 0.5)**2:
_CENTRAL_NUM = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
# tails, in r = sqrt(-log(min(p, 1 - p))): r <= 5, shifted by 1.6 ...
_NEAR_NUM = (
    7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
    1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
    4.6303378461565452959e0, 1.4234371107496835773e0,
)
_NEAR_DEN = (
    1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
    1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
    2.0531916266377588219e0, 1.0,
)
# ... and r > 5, shifted by 5
_FAR_NUM = (
    2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
    2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
    5.4637849111641143699e0, 6.6579046435011037772e0,
)
_FAR_DEN = (
    2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
    7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
    5.9983220655588793769e-1, 1.0,
)


def _polynomial(coefficients, r: np.ndarray) -> np.ndarray:
    """Horner's rule in the order AS241 writes it, one rounding per step."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile of float64 probabilities (``Phi^{-1}``).

    Wichura's AS241 (PPND16), the algorithm behind
    :meth:`statistics.NormalDist.inv_cdf`, in its operation order and
    vectorized: within a few ULP of the stdlib (which uses libm's
    ``log``) and of ``scipy.special.ndtri``, without importing scipy.
    Like ``ndtri`` it returns ``-inf``/``+inf`` at 0/1 and NaN outside
    [0, 1].
    """
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    num = _polynomial(_CENTRAL_NUM, r)
    num *= qc
    num /= _polynomial(_CENTRAL_DEN, r)
    x[central] = num

    tail = ~central
    qt, pt = q[tail], p[tail]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.where(qt <= 0.0, pt, 1.0 - pt)))
    mag = np.empty_like(r)
    near = r <= 5.0
    rn = r[near] - 1.6
    mag[near] = _polynomial(_NEAR_NUM, rn) / _polynomial(_NEAR_DEN, rn)
    far = ~near
    rf = r[far] - 5.0
    with np.errstate(invalid="ignore"):  # inf / inf at p = 0 and 1
        mag[far] = _polynomial(_FAR_NUM, rf) / _polynomial(_FAR_DEN, rf)
    mag[(pt == 0.0) | (pt == 1.0)] = np.inf
    x[tail] = np.where(qt < 0.0, -mag, mag)
    return x


def icdf_cuda_style(u):
    """Normal ICDF via Giles' erfinv: ``Phi^{-1}(u) = sqrt(2)·erfinv(2u-1)``.

    Accepts scalars or arrays of uniforms in the open interval (0, 1);
    rejection-free (always valid).
    """
    u_arr = np.asarray(u, dtype=np.float64)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
        raise ValueError("uniform inputs must lie strictly inside (0, 1)")
    z = _SQRT2 * erfinv(2.0 * u_arr - 1.0)
    z = z.astype(np.float32)
    return float(z[0]) if scalar else z


def _segment_edges(segments: int, subseg_bits: int) -> np.ndarray:
    """Subsegment edges of every segment, one row per segment.

    Row ``s`` splits ``[2**-(s+2), 2**-(s+1)]`` into ``2**subseg_bits``
    equal parts, the same points a per-segment ``np.linspace`` gives.
    """
    s = np.arange(segments + 1)
    lo, hi = np.ldexp(1.0, -(s + 2)), np.ldexp(1.0, -(s + 1))
    return np.linspace(lo, hi, (1 << subseg_bits) + 1, axis=1)


class IcdfFpga:
    """Bit-level fixed-point normal ICDF (hardware-style, ref [19]).

    The 32-bit uniform input word ``u`` is decomposed entirely with bit
    operations:

    ====================  =====================================================
    bit 31 (MSB)          output sign — the ICDF is antisymmetric around 0.5
    leading-zero count z  exponential segment: p ∈ [2**-(z+2), 2**-(z+1))
    next SUBSEG_BITS      uniform subsegment within the segment
    remaining bits        interpolation fraction t ∈ [0, 1)
    ====================  =====================================================

    Each (segment, subsegment) cell stores two fixed-point coefficients
    ``(c0, c1)``; the output magnitude is ``c0 + c1 * t`` evaluated in
    ``ApFixed<32, 8>`` arithmetic.  The coefficient ROM is built once at
    construction from the exact normal quantile function — standing in
    for the offline table generation of the original hardware paper.
    """

    def __init__(
        self,
        segments: int = ICDF_SEGMENTS,
        subseg_bits: int = ICDF_SUBSEG_BITS,
        frac_bits: int = ICDF_FRAC_BITS,
    ):
        if segments < 1 or segments > 30:
            raise ValueError("segments must lie in [1, 30]")
        if subseg_bits < 1 or subseg_bits > 16:
            raise ValueError("subseg_bits must lie in [1, 16]")
        self.segments = segments
        self.subseg_bits = subseg_bits
        self.frac_bits = frac_bits
        self.int_bits = 32 - frac_bits
        self._scale = 1 << frac_bits
        self._build_rom()

    # -- table construction -------------------------------------------------------

    def _build_rom(self) -> None:
        """Precompute fixed-point (c0, c1) per (segment, subsegment) cell.

        Segment ``s`` covers the probability interval
        ``[2**-(s+2), 2**-(s+1))`` of the *lower half* p < 0.5; its
        ``2**k`` subsegments split it uniformly.  The terminal segment
        ``s = segments`` collapses everything deeper than the last
        resolvable boundary into one clamped cell.  Linear coefficients
        are the chord through :func:`normal_quantile` at the subsegment
        endpoints (monotone, max error at the midpoint).
        """
        mag = -normal_quantile(_segment_edges(self.segments, self.subseg_bits))
        # subsegment index counts from p_lo upward (low x bits side);
        # within a subsegment the fraction t grows toward p_hi
        lo_edge = mag[:, :-1]
        hi_edge = mag[:, 1:]
        self._c0 = np.round(lo_edge * self._scale).astype(np.int64)
        self._c1 = np.round((hi_edge - lo_edge) * self._scale).astype(np.int64)

    # -- bit-level evaluation -------------------------------------------------------

    def decompose(self, u: int) -> tuple[int, int, int, int, bool]:
        """Split a 32-bit word into (sign, segment, subsegment, fraction, valid).

        Pure shift/mask/compare logic — the code path whose emulation cost
        on fixed architectures the paper measures.
        """
        u &= 0xFFFFFFFF
        sign = (u >> 31) & 1
        x = u & 0x7FFFFFFF  # 31-bit magnitude selector
        if x == 0:
            return sign, self.segments, 0, 0, False
        # leading-zero count within 31 bits (bit 30 is the first)
        z = 31 - x.bit_length()  # 0 .. 30
        seg = z
        valid = True
        if seg >= self.segments:
            seg = self.segments
            sub = 0
            frac = 0
            valid = False
            return sign, seg, sub, frac, valid
        # strip the leading one, take subsegment bits, rest is the fraction
        body_bits = 30 - z  # bits below the leading one
        body = x & ((1 << body_bits) - 1)
        if body_bits >= self.subseg_bits:
            sub = body >> (body_bits - self.subseg_bits)
            frac_bits_avail = body_bits - self.subseg_bits
            frac = body & ((1 << frac_bits_avail) - 1)
            # normalize fraction to frac_bits precision
            if frac_bits_avail >= self.frac_bits:
                frac >>= frac_bits_avail - self.frac_bits
            else:
                frac <<= self.frac_bits - frac_bits_avail
        else:
            sub = body << (self.subseg_bits - body_bits)
            frac = 0
        return sign, seg, sub, frac, valid

    def evaluate(self, u: int) -> tuple[float, bool]:
        """Transform one 32-bit uniform word; returns ``(normal, valid)``."""
        sign, seg, sub, frac, valid = self.decompose(int(u))
        if not valid:
            return 0.0, False
        c0 = int(self._c0[seg, sub])
        c1 = int(self._c1[seg, sub])
        # fixed-point multiply-accumulate: (c0 + c1 * t) with t = frac/2**F
        acc = c0 + ((c1 * frac) >> self.frac_bits)
        mag = ApFixed.from_raw(64, 64 - self.frac_bits, acc).to_float()
        value = -mag if sign == 0 else mag
        return float(np.float32(value)), True

    def evaluate_batch(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized transform of uint32 words; returns (values, valid).

        The numpy formulation keeps the *identical* bit-level semantics
        (LZC, masks, integer MAC) while running at array speed — this is
        what the fixed-architecture models execute.
        """
        u = np.asarray(u, dtype=np.uint32)
        sign = (u >> np.uint32(31)) & np.uint32(1)
        x = (u & np.uint32(0x7FFFFFFF)).astype(np.int64)
        nonzero = x > 0
        # bit_length via log2 on int64 (values >= 1)
        bitlen = np.zeros_like(x)
        bitlen[nonzero] = np.floor(np.log2(x[nonzero])).astype(np.int64) + 1
        z = 31 - bitlen
        valid = nonzero & (z < self.segments)
        seg = np.minimum(z, self.segments)
        body_bits = 30 - z
        body = x & ((np.int64(1) << np.maximum(body_bits, 0)) - 1)
        have = body_bits - self.subseg_bits
        sub = np.where(
            have >= 0,
            body >> np.maximum(have, 0),
            body << np.maximum(-have, 0),
        )
        frac = np.where(have > 0, body & ((np.int64(1) << np.maximum(have, 0)) - 1), 0)
        shift = have - self.frac_bits
        frac = np.where(
            shift >= 0,
            frac >> np.maximum(shift, 0),
            frac << np.maximum(-shift, 0),
        )
        seg_i = np.where(valid, seg, 0)
        sub_i = np.where(valid, sub, 0)
        c0 = self._c0[seg_i, sub_i]
        c1 = self._c1[seg_i, sub_i]
        acc = c0 + ((c1 * frac) >> np.int64(self.frac_bits))
        mag = acc.astype(np.float64) / self._scale
        values = np.where(sign == 0, -mag, mag)
        values = np.where(valid, values, 0.0).astype(np.float32)
        return values, valid

    @property
    def rejection_probability(self) -> float:
        """Probability that a uniform input lands beyond the table depth.

        Valid inputs need a leading-zero count below ``segments``; per
        half-axis that excludes ``x < 2**(31 - segments)``, i.e. a total
        probability of ``2**-segments``.
        """
        return 2.0**-self.segments


_DEFAULT_FPGA_ICDF: IcdfFpga | None = None


def _default_icdf() -> IcdfFpga:
    global _DEFAULT_FPGA_ICDF
    if _DEFAULT_FPGA_ICDF is None:
        _DEFAULT_FPGA_ICDF = IcdfFpga()
    return _DEFAULT_FPGA_ICDF


def icdf_fpga_style(u):
    """Bit-level ICDF on uint32 word(s); returns ``(values, valid)``.

    Module-level convenience over a shared default :class:`IcdfFpga`
    table (built lazily on first use).
    """
    table = _default_icdf()
    if np.isscalar(u) or isinstance(u, (int, np.integer, ApUInt)):
        return table.evaluate(int(u))
    return table.evaluate_batch(u)
