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
"""

from __future__ import annotations

import math

import numpy as np

from repro.fixedpoint import ApFixed, ApUInt

from repro.rng.erfinv import erfinv

__all__ = [
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
        ``2**k`` subsegments split it uniformly.  Linear coefficients are
        the chord through the exact quantile at the subsegment endpoints
        (monotone, max error at the midpoint).
        """
        from scipy.special import ndtri

        k = self.subseg_bits
        n_sub = 1 << k
        c0 = np.empty((self.segments + 1, n_sub), dtype=np.int64)
        c1 = np.empty((self.segments + 1, n_sub), dtype=np.int64)
        for s in range(self.segments + 1):
            if s < self.segments:
                p_lo = 2.0 ** -(s + 2)
            else:
                # terminal segment: everything deeper than the last
                # resolvable boundary collapses into one clamped cell
                p_lo = 2.0 ** -(self.segments + 2)
            p_hi = 2.0 ** -(s + 1)
            edges = np.linspace(p_lo, p_hi, n_sub + 1)
            mag = -ndtri(edges)  # positive magnitudes (p < 0.5)
            # subsegment index counts from p_lo upward (low x bits side);
            # within a subsegment the fraction t grows toward p_hi
            lo_edge = mag[:-1]
            hi_edge = mag[1:]
            c0[s] = np.round(lo_edge * self._scale).astype(np.int64)
            c1[s] = np.round((hi_edge - lo_edge) * self._scale).astype(np.int64)
        self._c0 = c0
        self._c1 = c1

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
