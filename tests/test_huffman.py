"""Unit tests for the canonical Huffman substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.huffman import Huffman, code_lengths
from repro.core.bitio import BitReader, pack_bits


def _fibonacci(k: int) -> list[int]:
    f = [1, 1]
    while len(f) < k:
        f.append(f[-1] + f[-2])
    return f


class TestCodeLengths:
    def test_empty(self):
        assert code_lengths(np.zeros(4)).tolist() == [0, 0, 0, 0]

    def test_single_symbol_gets_one_bit(self):
        assert code_lengths(np.array([0, 7, 0])).tolist() == [0, 1, 0]

    def test_uniform_four_symbols(self):
        assert code_lengths(np.array([1, 1, 1, 1])).tolist() == [2, 2, 2, 2]

    def test_skewed(self):
        # classic {8,4,2,1,1}: depths 1,2,3,4,4
        lens = code_lengths(np.array([8, 4, 2, 1, 1]))
        assert sorted(lens.tolist()) == [1, 2, 3, 4, 4]

    def test_kraft_inequality_tight(self):
        g = np.random.default_rng(0)
        freqs = g.integers(0, 100, 40)
        lens = code_lengths(freqs)
        used = lens[lens > 0].astype(np.int64)
        if used.size:
            assert np.isclose(np.sum(2.0 ** -used), 1.0)


class TestHuffmanRoundtrip:
    def _roundtrip(self, symbols, alphabet):
        h = Huffman.from_symbols(symbols, alphabet)
        buf = h.encode(symbols)
        h2, _ = Huffman.deserialize(h.serialize())
        out = h2.decode(BitReader(buf), len(symbols))
        np.testing.assert_array_equal(out, symbols)
        return buf

    def test_basic(self):
        g = np.random.default_rng(1)
        syms = g.integers(0, 10, 5000)
        self._roundtrip(syms, 16)

    def test_single_distinct_symbol(self):
        self._roundtrip(np.full(100, 3), 8)

    @pytest.mark.parametrize(
        "symbols",
        [[], [5], list(range(65)), np.repeat(np.arange(24), _fibonacci(24)).tolist()],
        ids=["empty", "one", "wide", "deep"],  # deep: Fibonacci counts, 23-bit codes
    )
    def test_edge_cases(self, symbols):
        self._roundtrip(np.array(symbols, dtype=np.int64), 65)

    def test_decode_starts_at_and_advances_reader_pos(self):
        g = np.random.default_rng(4)
        syms = g.integers(0, 6, 300)
        h = Huffman.from_symbols(syms, 6)
        # 3 unrelated bits, then the symbols' codes
        buf = pack_bits(
            np.concatenate([np.array([0b101], dtype=np.uint64), h.codes[syms]]),
            np.concatenate([[3], h.lengths[syms].astype(np.int64)]),
        )
        r = BitReader(buf, start_bit=3)
        np.testing.assert_array_equal(h.decode(r, syms.size), syms)
        assert r.pos == 3 + h.encoded_bits(syms)

    def test_two_symbols(self):
        self._roundtrip(np.array([0, 1, 0, 0, 1]), 2)

    def test_near_entropy_on_skewed(self):
        g = np.random.default_rng(2)
        syms = g.choice(8, 20000, p=[0.5, 0.25, 0.125, 0.06, 0.03, 0.02, 0.01, 0.005])
        buf = self._roundtrip(syms, 8)
        p = np.bincount(syms, minlength=8) / syms.size
        ent = -np.sum(p[p > 0] * np.log2(p[p > 0]))
        assert len(buf) * 8 <= (ent + 0.2) * syms.size  # within 0.2 bit/sym

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_hypothesis(self, xs):
        self._roundtrip(np.array(xs), 31)

    def test_encoded_bits_matches_stream(self):
        g = np.random.default_rng(3)
        syms = g.integers(0, 5, 777)
        h = Huffman.from_symbols(syms, 5)
        assert (h.encoded_bits(syms) + 7) // 8 == len(h.encode(syms))


class TestMalformed:
    def test_count_bounded_by_stream_bits(self):
        """A forged count fails before allocating: >= 1 bit per symbol."""
        h = Huffman.from_symbols(np.array([0, 1, 1]), 2)
        with pytest.raises(ValueError, match="truncated"):
            h.decode(BitReader(b"\x00" * 4), 1 << 50)

    def test_truncated_stream(self):
        g = np.random.default_rng(5)
        syms = g.integers(0, 9, 500)
        h = Huffman.from_symbols(syms, 9)
        buf = h.encode(syms)
        for k in range(len(buf)):
            with pytest.raises(ValueError, match="truncated"):
                h.decode(BitReader(buf[:k]), syms.size)

    def test_no_code_matches(self):
        # one symbol, code "0": a stream of 1 bits never decodes
        h = Huffman(np.array([1], dtype=np.uint8))
        with pytest.raises(ValueError, match="corrupt"):
            h.decode(BitReader(b"\xff" * 16), 1)

    @pytest.mark.parametrize(
        "lengths", [[1, 1, 1], [65, 1]], ids=["over-kraft", "too-long"]
    )
    def test_invalid_table_rejected(self, lengths):
        with pytest.raises(ValueError, match="corrupt Huffman table"):
            Huffman(np.array(lengths, dtype=np.uint8))
