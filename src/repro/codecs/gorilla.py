"""Gorilla — Facebook's in-memory TSDB value compressor (§3.4, VLDB 2015).

Only the floating-point *value* stream scheme is implemented (the paper's
datasets are value streams; Gorilla's delta-of-delta timestamp coding has
no timestamps to act on here, which matches how the benchmark applied it).

Per value, XOR with the previous value, then:

* ``0``            — the XOR is zero (value repeats);
* ``10``           — the meaningful (non-zero) bits of the XOR fall inside
  the previous ``[leading, trailing]`` window: store just the meaningful
  bits using the stored window lengths;
* ``11``           — store 5 bits of leading-zero count, 6 bits of
  meaningful-bit length (width encoded as 0), then the meaningful bits,
  and remember this window for subsequent ``10`` codes.

Compression precomputes XOR/LZ/TZ vectorized, walks the control-bit state
machine in C (``gorilla_fields`` in ``repro/native/kernels.c``; the window
carries sequential state), and packs all emitted fields in one vectorized
``pack_bits``. Decode is the sequential bit walk the format requires, also
in C (``gorilla_decode``), with every read bounds-checked. Gorilla is
serial in the original too — this is the class of method the paper finds
slowest.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import leading_zeros, pack_bits, trailing_zeros
from repro.native import check, i64, lib, u8, u64

_MAX_LZ = 31  # 5-bit leading-zero field


@register
class Gorilla(Codec):
    info = MethodInfo(
        name="Gorilla", year=2015, domain="Database", precision="D", arch="CPU",
        parallel="serial", trait="delta", group="delta",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = np.ascontiguousarray(words).astype(np.uint64)
        width = words.dtype.itemsize * 8
        n = w.size
        if n == 0:
            return b""
        xor = w.copy()
        xor[1:] = w[1:] ^ w[:-1]
        lz = np.minimum(leading_zeros(xor, width), _MAX_LZ)
        tz = trailing_zeros(xor, width)
        # first value, then at most two fields (control, payload) per value;
        # the payload is its own field because a fused one could exceed
        # pack_bits' 64-bit word (2+5+6+mlen)
        vals = np.empty(2 * n - 1, dtype=np.uint64)
        nbits = np.empty(2 * n - 1, dtype=np.int64)
        k = check(lib.gorilla_fields(u64(xor), i64(lz), i64(tz), n, width, u64(vals), i64(nbits)))
        return pack_bits(vals[:k], nbits[:k])

    def _decode(self, payload, dtype, count, dims):
        word_dt = np.uint32 if dtype.itemsize == 4 else np.uint64
        width = dtype.itemsize * 8
        if count == 0:
            return np.zeros(0, dtype=word_dt)
        # every value after the first takes at least one bit: bound the
        # header's count by the payload before allocating for it
        if width + (count - 1) > 8 * len(payload):
            raise ValueError("bitstream truncated")
        out = np.empty(count, dtype=np.uint64)
        check(lib.gorilla_decode(u8(payload), len(payload), width, count, u64(out)))
        if width == 32:
            return out.astype(np.uint32)
        return out
