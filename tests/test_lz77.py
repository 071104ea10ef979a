"""Unit tests for the LZ4-style LZ77 substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.lz77 import lz_compress, lz_decompress


class TestRoundtrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abc",
            b"aaaaaaaaaaaaaaaaaaaaaaa",
            b"abcabcabcabcabcabcabcabc",
            b"the quick brown fox " * 50,
            bytes(range(256)) * 8,
            b"\x00" * 10000,
            bytes(range(20)) * 3,
            bytes(range(256)) * 300,
        ],
        ids=[
            "empty", "one", "short", "runs", "period3", "text", "cycle", "zeros",
            "long-overlap", "above-64k",
        ],
    )
    def test_fixed_cases(self, data):
        assert lz_decompress(lz_compress(data)) == data

    def test_random_incompressible(self):
        g = np.random.default_rng(0)
        data = g.integers(0, 256, 100_000, dtype=np.uint8).tobytes()
        assert lz_decompress(lz_compress(data)) == data

    def test_float_data(self):
        g = np.random.default_rng(1)
        data = np.cumsum(g.normal(size=20000)).astype(np.float64).tobytes()
        assert lz_decompress(lz_compress(data)) == data

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=2000))
    def test_hypothesis(self, data):
        assert lz_decompress(lz_compress(data)) == data

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=20), st.integers(1, 500))
    def test_hypothesis_repeats(self, unit, reps):
        data = unit * reps
        assert lz_decompress(lz_compress(data)) == data


    def test_token_layout(self):
        """20 literals then a 40-byte match at offset 20 (overlapping)."""
        data = bytes(range(20)) * 3
        # ll=20 and ml-4=36 both overflow their nibble into one extension
        # byte (20-15, 36-15); the stream ends with an empty literal run
        expected = (
            bytes([0xFF, 20 - 15]) + bytes(range(20)) + (20).to_bytes(2, "little")
            + bytes([36 - 15]) + b"\x00"
        )
        assert lz_compress(data) == expected

    def test_match_beyond_window_not_used(self):
        g = np.random.default_rng(4)
        chunk = g.integers(0, 256, 1000, dtype=np.uint8).tobytes()
        gap = g.integers(0, 256, 70_000, dtype=np.uint8).tobytes()
        data = chunk + gap + chunk  # the repeat is more than 64 KiB back
        comp = lz_compress(data)
        assert lz_decompress(comp) == data
        assert len(comp) > len(data)


class TestMalformed:
    @pytest.mark.parametrize(
        "blob",
        [
            # 8 literals, then a match 20 bytes back: before the output start
            bytes([0x80]) + b"abcdefgh" + (20).to_bytes(2, "little") + b"\x00",
            # offset 0
            bytes([0x80]) + b"abcdefgh" + (0).to_bytes(2, "little") + b"\x00",
        ],
        ids=["before-start", "zero"],
    )
    def test_forged_offset_rejected(self, blob):
        with pytest.raises(ValueError, match="offset"):
            lz_decompress(blob)

    def test_truncation_raises_or_yields_prefix(self):
        """A prefix can end on a sequence boundary: then it decodes to a prefix."""
        data = bytes(range(20)) * 3 + b"tail" + bytes(range(40)) * 2
        comp = lz_compress(data)
        for k in range(len(comp)):
            try:
                out = lz_decompress(comp[:k])
            except ValueError:
                continue
            assert data.startswith(out)

    @pytest.mark.parametrize(
        "blob",
        [b"\xf0", b"\xf0\xff", b"\x10", b"\x1f" + b"a" + b"\x01", b"\x1f" + b"a\x01\x00"],
        ids=["lit-ext", "lit-ext-cont", "lit-body", "offset", "match-ext"],
    )
    def test_truncated_fields_raise(self, blob):
        with pytest.raises(ValueError, match="truncated"):
            lz_decompress(blob)


class TestRatioProperties:
    def test_compresses_repetitive(self):
        data = b"sensor_reading:42.0;" * 500
        assert len(lz_compress(data)) < len(data) / 5

    def test_long_match_far_offset(self):
        # A repeat just inside the 64 KiB window must still be found.
        g = np.random.default_rng(2)
        chunk = g.integers(0, 256, 30_000, dtype=np.uint8).tobytes()
        data = chunk + b"x" * 100 + chunk
        comp = lz_compress(data)
        assert lz_decompress(comp) == data
        assert len(comp) < len(data)

    def test_expansion_bounded_on_random(self):
        g = np.random.default_rng(3)
        data = g.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
        # literal-run overhead is a few bytes per 64 KiB, not per byte
        assert len(lz_compress(data)) < len(data) * 1.01 + 64
