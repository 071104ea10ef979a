"""Canonical Huffman coding over small symbol alphabets.

Substitutes the fast range coder used by fpzip (DESIGN.md substitution #7):
for the ≤65-symbol residual-length alphabets involved, Huffman is within a
few percent of arithmetic coding's ratio while keeping encode fully
vectorized (table lookup + ``pack_bits``). Decode is the per-symbol
canonical walk, in C (``huffman_decode`` in ``repro/native/kernels.c``),
over the buffer of a :class:`~repro.core.bitio.BitReader` from its
position on.
"""
from __future__ import annotations

import heapq
from itertools import count

import numpy as np

from repro.core.bitio import BitReader, pack_bits
from repro.native import check, i64, lib, u8, u64

_MAX_LEN = 64  # pack_bits' word: longer codes cannot be written


def code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman code length per symbol (0 for absent symbols)."""
    freqs = np.asarray(freqs, dtype=np.int64)
    present = np.flatnonzero(freqs > 0)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    tie = count()  # heap tiebreaker so ties never compare the tree tuples
    heap = [(int(freqs[s]), next(tie), (int(s),)) for s in present]
    heapq.heapify(heap)
    depth = {int(s): 0 for s in present}
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        for s in a + b:
            depth[s] += 1
        heapq.heappush(heap, (fa + fb, next(tie), a + b))
    for s, d in depth.items():
        lengths[s] = d
    return lengths


class Huffman:
    """Canonical Huffman codec built from per-symbol code lengths."""

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = np.asarray(lengths, dtype=np.uint8)
        order = np.lexsort((np.arange(self.lengths.size), self.lengths))
        order = order[self.lengths[order] > 0]
        self.sorted_syms = order.astype(np.int64)
        self.codes = np.zeros(self.lengths.size, dtype=np.uint64)
        # canonical assignment: increasing (length, symbol). The codes of
        # length L are first_code[L] .. first_code[L] + counts[L] - 1, for the
        # symbols sorted_syms[first_idx[L]:][:counts[L]].
        self.first_code = np.zeros(_MAX_LEN + 1, dtype=np.uint64)
        self.first_idx = np.zeros(_MAX_LEN + 1, dtype=np.int64)
        self.counts = np.zeros(_MAX_LEN + 1, dtype=np.int64)
        code = 0
        prev_len = 0
        for idx, s in enumerate(order):
            L = int(self.lengths[s])
            code <<= L - prev_len
            # only a forged table has codes over 64 bits or breaks the Kraft
            # inequality, which runs out of L-bit codes
            if L > _MAX_LEN or code >> L:
                raise ValueError("corrupt Huffman table")
            if self.counts[L] == 0:
                self.first_code[L] = code
                self.first_idx[L] = idx
            self.codes[s] = code
            self.counts[L] += 1
            code += 1
            prev_len = L

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, alphabet: int) -> "Huffman":
        freqs = np.bincount(np.asarray(symbols, dtype=np.int64), minlength=alphabet)
        return cls(code_lengths(freqs))

    def encode(self, symbols: np.ndarray) -> bytes:
        s = np.asarray(symbols, dtype=np.int64)
        return pack_bits(self.codes[s], self.lengths[s].astype(np.int64))

    def encoded_bits(self, symbols: np.ndarray) -> int:
        return int(self.lengths[np.asarray(symbols, dtype=np.int64)].sum())

    def decode(self, reader: BitReader, n: int) -> np.ndarray:
        """Decode ``n`` symbols from ``reader.buf`` at ``reader.pos``; advance it."""
        buf = reader.buf
        # every symbol takes at least one bit: bound n before allocating
        if n > 8 * len(buf) - reader.pos:
            raise ValueError("bitstream truncated")
        out = np.empty(n, dtype=np.int64)
        reader.pos = check(
            lib.huffman_decode(
                u8(buf), len(buf), reader.pos, u64(self.first_code), i64(self.first_idx),
                i64(self.counts), i64(self.sorted_syms), n, i64(out),
            )
        )
        return out

    def serialize(self) -> bytes:
        return bytes([self.lengths.size]) + self.lengths.tobytes()

    @classmethod
    def deserialize(cls, buf: bytes, off: int = 0) -> tuple["Huffman", int]:
        if off >= len(buf):
            raise ValueError("bitstream truncated")
        size = buf[off]
        lengths = np.frombuffer(buf, dtype=np.uint8, count=size, offset=off + 1)
        return cls(lengths), off + 1 + size
