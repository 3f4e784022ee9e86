"""512-bit memory-word packing for the Transfer block.

SDAccel's memory interface on the ADM-PCIE-7V3 board is 512 bits wide —
"equivalent to 16 single-precision floating point values" (Section III-D).
The ``Transfer`` function packs validated gamma RNs into ``ap_uint<512>``
words before bursting them to device global memory.  These helpers are the
software equivalent of the paper's ``g512`` packing routine, built on
vectorized numpy views rather than per-element loops.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.fixedpoint.ap_int import ApUInt

#: Width of the device global memory interface in bits (Section III-D).
WORD_BITS = 512

#: Number of float32 lanes per memory word ("float16" in an NDRange kernel).
FLOATS_PER_WORD = WORD_BITS // 32


def float_to_bits(x: float) -> int:
    """Reinterpret a float32 as its 32-bit pattern (IEEE 754 bit cast).

    Signaling-NaN payloads are quieted by the double round-trip, as on
    real conversion hardware; all finite values and infinities cast
    exactly.
    """
    return struct.unpack("<I", struct.pack("<f", x))[0]


def bits_to_float(bits: int) -> float:
    """Reinterpret a 32-bit pattern as a float32."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def pack_floats(values) -> list[ApUInt]:
    """Pack float32 values into 512-bit words, 16 lanes per word.

    Lane 0 occupies the least significant 32 bits, matching the order in
    which ``g512`` shifts values in as the stream is drained.  The input is
    zero-padded to a multiple of 16 (the hardware would pad the final burst
    the same way).  Each lane holds the value's :func:`float_to_bits`
    pattern, bit for bit, signed zeros, subnormals, infinities and NaNs
    included; the one difference is a finite double beyond float32 range,
    which numpy rounds to an infinity (with an overflow warning) where
    :func:`float_to_bits` raises ``OverflowError``.

    Parameters
    ----------
    values:
        1-D array or sequence (any float dtype; converted to float32).

    Returns
    -------
    list of ``ApUInt(512)`` memory words.
    """
    arr = np.asarray(values, dtype="<f4").ravel()
    pad = (-arr.size) % FLOATS_PER_WORD
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype="<f4")])
    raw = arr.tobytes()
    size = WORD_BITS // 8
    return [
        ApUInt(WORD_BITS, int.from_bytes(raw[i : i + size], "little"))
        for i in range(0, len(raw), size)
    ]


def unpack_floats(words, count: int | None = None) -> np.ndarray:
    """Inverse of :func:`pack_floats`.

    Parameters
    ----------
    words:
        Iterable of ``ApUInt(512)`` (or plain ints) memory words.
    count:
        If given, truncate the output to this many values (strips the
        zero padding added by the packer).
    """
    lanes = []
    for word in words:
        raw = int(word)
        for lane in range(FLOATS_PER_WORD):
            lanes.append((raw >> (32 * lane)) & 0xFFFFFFFF)
    out = np.array(lanes, dtype=np.uint32).view(np.float32)
    if count is not None:
        out = out[:count]
    return out
