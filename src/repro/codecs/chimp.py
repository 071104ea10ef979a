"""Chimp (Chimp128) — time-series float compressor (§3.5, VLDB 2022).

Redesign of Gorilla's control codes plus a 128-value sliding window: an
index keyed on the 14 low bits of each value proposes the previous value
whose XOR yields the most trailing zeros. Control codes:

* ``00`` — XOR with the indexed previous value is zero: store the 7-bit
  window index only;
* ``01`` — indexed previous value, trailing zeros > threshold: store
  7-bit index, 3-bit rounded leading-zero code, 6-bit center length, and
  the center bits (XOR with its trailing zeros stripped);
* ``10`` — XOR with the *immediately* previous value whose leading-zero
  count matches the stored one: store the (width − lz) low bits directly;
* ``11`` — same but a new 3-bit leading-zero code precedes the bits.

Leading zeros are rounded down to {0,8,12,16,18,20,22,24} as in Chimp.
The sliding-window search is what buys Chimp its ratio over Gorilla at
the cost of compression throughput (§3.5 Insights) — visible here too,
since the index maintenance runs per value. The window/index walk and the
decoder are sequential state machines in C (``chimp_fields`` and
``chimp_decode`` in ``repro/native/kernels.c``); the emitted fields are
packed by the vectorized ``pack_bits``.
"""
from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, MethodInfo, register
from repro.core.bitio import pack_bits
from repro.native import check, i64, lib, u8, u64


@register
class Chimp(Codec):
    info = MethodInfo(
        name="Chimp", year=2022, domain="Database", precision="S,D", arch="CPU",
        parallel="serial", trait="delta", group="dictionary",
    )

    def _encode(self, words: np.ndarray, dims) -> bytes:
        w = np.ascontiguousarray(words).astype(np.uint64)
        width = words.dtype.itemsize * 8
        n = w.size
        if n == 0:
            return b""
        # first value, then at most two fields (head, payload) per value;
        # the payload is its own field because a fused one could exceed
        # pack_bits' 64-bit word
        vals = np.empty(2 * n - 1, dtype=np.uint64)
        nbits = np.empty(2 * n - 1, dtype=np.int64)
        k = check(lib.chimp_fields(u64(w), n, width, u64(vals), i64(nbits)))
        return pack_bits(vals[:k], nbits[:k])

    def _decode(self, payload, dtype, count, dims):
        word_dt = np.uint32 if dtype.itemsize == 4 else np.uint64
        width = dtype.itemsize * 8
        if count == 0:
            return np.zeros(0, dtype=word_dt)
        # every value after the first takes at least a 2-bit flag: bound the
        # header's count by the payload before allocating for it
        if width + 2 * (count - 1) > 8 * len(payload):
            raise ValueError("bitstream truncated")
        out = np.empty(count, dtype=np.uint64)
        check(lib.chimp_decode(u8(payload), len(payload), width, count, u64(out)))
        if width == 32:
            return out.astype(np.uint32)
        return out
