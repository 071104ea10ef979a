"""Greedy hash-table LZ77 with an LZ4-style token format and skip acceleration.

This is the dictionary-coding substrate standing in for the external LZ4
library (bitshuffle::LZ4, nvCOMP::LZ4) and for SPDP's LZa6 component, which
is itself described as "a fast variant of LZ77" (§3.2). The format is
LZ4-like:

    sequence := token [lit-len ext*] literals [offset u16le [match-len ext*]]
    token    := (literal_len:4 | match_len-4:4), 15 in a nibble = extended
    ext      := 255-continuation bytes, final byte < 255

The last sequence carries literals only (stream ends after them), exactly
like the LZ4 block format. Offsets are bounded by a 64 KiB window.

LZ4 and zstd bindings are not dependencies (DESIGN.md substitution #2),
so the match search and the decoder are our own, written in C
(``lz_compress``/``lz_decompress`` in ``repro/native/kernels.c``).
Matches are exact: the candidate for a position is the latest earlier
visited position with the same 4-byte key, not LZ4's lossy hash slot. Skip
acceleration (step grows on successive misses) keeps throughput tolerable
on incompressible float data. The decoder validates the whole stream, every
offset included, before it writes any output.
"""
from __future__ import annotations

from repro.native import check, ffi, lib, u8


def lz_compress(data: bytes, *, skip_trigger: int = 6) -> bytes:
    """Compress ``data``; always round-trips through :func:`lz_decompress`."""
    if not 0 <= skip_trigger < 32:
        raise ValueError(f"skip_trigger must be in [0, 32), got {skip_trigger}")
    src = u8(data)
    n = len(src)
    cap = n + n // 8 + 64  # worst case n + n/15 + 1: literal-run extension bytes
    out = ffi.new("uint8_t[]", cap)
    size = check(lib.lz_compress(src, n, out, cap, skip_trigger))
    return ffi.buffer(out, size)[:]


def lz_decompress(blob: bytes) -> bytes:
    """Inverse of :func:`lz_compress`; ``ValueError`` on a malformed stream."""
    src = u8(blob)
    size = check(lib.lz_decompress(src, len(src), ffi.NULL, 0))  # validate and size
    out = ffi.new("uint8_t[]", max(size, 1))
    check(lib.lz_decompress(src, len(src), out, size))
    return ffi.buffer(out, size)[:]
