"""Loader for the C state machines in ``kernels.c``.

The source is compiled once with ``gcc -O2 -shared -fPIC`` into
``_build/kernels-<sha256 of the source>.so`` next to this file and opened
with ``cffi.FFI().dlopen``. An edited ``kernels.c`` therefore gets a new
library and never loads a stale one. Spark starts several Python workers at
once, each importing this module: the build runs under an exclusive
``fcntl.flock`` on ``_build/.lock`` and lands with an atomic ``os.replace``,
so exactly one worker compiles and the others load its result.

Loading happens at import, not on first call, so the one-time compile and
``dlopen`` fall in codec lookup (``load_codec``) and never inside a timed
compress or decompress.
"""
from __future__ import annotations

import fcntl
import hashlib
import os
import subprocess
from pathlib import Path

import cffi
import numpy as np

_SRC = Path(__file__).with_name("kernels.c")
_BUILD = Path(__file__).with_name("_build")

_CDEF = """
int64_t lz_compress(const uint8_t *src, int64_t n, uint8_t *dst, int64_t cap, int skip_trigger);
int64_t lz_decompress(const uint8_t *src, int64_t n, uint8_t *dst, int64_t size);
int64_t gorilla_fields(const uint64_t *xor, const int64_t *lz, const int64_t *tz, int64_t n,
                       int width, uint64_t *vals, int64_t *nbits);
int gorilla_decode(const uint8_t *buf, int64_t nbytes, int width, int64_t count, uint64_t *out);
int64_t chimp_fields(const uint64_t *w, int64_t n, int width, uint64_t *vals, int64_t *nbits);
int chimp_decode(const uint8_t *buf, int64_t nbytes, int width, int64_t count, uint64_t *out);
int64_t huffman_decode(const uint8_t *buf, int64_t nbytes, int64_t pos, const uint64_t *first_code,
                       const int64_t *first_idx, const int64_t *counts, const int64_t *syms,
                       int64_t n, int64_t *out);
"""

#: Negative return codes of kernels.c (its ERR_* macros).
_ERRORS = {
    -1: "bitstream truncated",
    -2: "corrupt stream",
    -3: "LZ77 offset out of range",
}
_ERR_NOMEM = -4


def _library() -> Path:
    """Path of the compiled kernels, building it first if it is missing."""
    digest = hashlib.sha256(_SRC.read_bytes()).hexdigest()
    path = _BUILD / f"kernels-{digest}.so"
    if path.exists():
        return path
    _BUILD.mkdir(exist_ok=True)
    with open(_BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not path.exists():  # another process may have built it while we waited
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                gcc = subprocess.run(
                    ["gcc", "-O2", "-shared", "-fPIC", "-o", str(tmp), str(_SRC)],
                    capture_output=True,
                    text=True,
                )
                if gcc.returncode != 0:
                    raise RuntimeError(f"gcc could not build {_SRC}:\n{gcc.stderr}")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
    return path


ffi = cffi.FFI()
ffi.cdef(_CDEF)
LIBRARY_PATH = _library()
lib = ffi.dlopen(str(LIBRARY_PATH))


def check(rc: int) -> int:
    """Return a kernel's non-negative result; raise for its error codes."""
    if rc >= 0:
        return rc
    if rc == _ERR_NOMEM:
        raise MemoryError("native kernel could not allocate")
    raise ValueError(_ERRORS[rc])


def u8(buf) -> object:
    """A ``uint8_t *`` view of a bytes-like object, without copying."""
    return ffi.from_buffer("uint8_t[]", buf)


def _array(ctype: str, dtype: type, arr: np.ndarray) -> object:
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(f"expected a C-contiguous {np.dtype(dtype)} array, got {arr.dtype}")
    return ffi.from_buffer(ctype, arr)


def u64(arr: np.ndarray) -> object:
    """A ``uint64_t *`` view of a C-contiguous uint64 array."""
    return _array("uint64_t[]", np.uint64, arr)


def i64(arr: np.ndarray) -> object:
    """An ``int64_t *`` view of a C-contiguous int64 array."""
    return _array("int64_t[]", np.int64, arr)
