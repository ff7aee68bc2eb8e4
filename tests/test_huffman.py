"""Tests for the canonical Huffman coder (§III-C-1 substrate)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import huffman


def test_single_symbol():
    c = huffman.build(np.array([7, 7, 7, 7]))
    assert list(c.symbols) == [7]
    assert list(c.lengths) == [1]
    assert c.total_bits == 4


def test_two_symbols_one_bit_each():
    c = huffman.build(np.array([0, 0, 0, 1]))
    assert sorted(c.lengths.tolist()) == [1, 1]
    assert c.total_bits == 4


def test_empty_stream():
    c = huffman.build(np.array([], dtype=np.int64))
    assert c.total_bits == 0


def test_kraft_equality():
    """An optimal prefix code satisfies Kraft with equality."""
    rng = np.random.default_rng(0)
    stream = rng.geometric(0.3, size=5000) - 1
    c = huffman.build(stream)
    assert np.sum(2.0 ** (-c.lengths.astype(float))) == pytest.approx(1.0)


def test_prefix_free():
    rng = np.random.default_rng(1)
    stream = rng.integers(0, 40, size=3000)
    c = huffman.build(stream)
    codes = [
        format(int(cw), "b").zfill(int(ln)) for cw, ln in zip(c.codes, c.lengths)
    ]
    assert len(set(codes)) == len(codes)
    for a in codes:
        for b in codes:
            if a is not b:
                assert not b.startswith(a) or a == b


def test_optimality_vs_entropy():
    """Huffman bit-rate within 1 bit of the entropy lower bound."""
    rng = np.random.default_rng(2)
    stream = rng.geometric(0.4, size=20000) - 1
    c = huffman.build(stream)
    p = c.counts / c.counts.sum()
    entropy = -(p * np.log2(p)).sum()
    assert entropy <= c.bitrate() <= entropy + 1.0


def test_bitrate_dominant_symbol_min_one_bit():
    stream = np.concatenate([np.zeros(10000, np.int64), np.arange(1, 4)])
    c = huffman.build(stream)
    assert c.symbols[0] == 0
    assert c.lengths[0] == 1  # can't go below 1 bit/symbol


def test_build_from_histogram_matches_stream():
    stream = np.random.default_rng(3).integers(-5, 6, size=4000)
    syms, cnts = np.unique(stream, return_counts=True)
    a = huffman.build(stream)
    b = huffman.build(syms, cnts)
    np.testing.assert_array_equal(a.lengths, b.lengths)
    np.testing.assert_array_equal(a.codes, b.codes)


@pytest.mark.parametrize("n,vocab", [(1, 1), (17, 2), (1000, 50), (5000, 3)])
def test_encode_decode_roundtrip(n, vocab):
    rng = np.random.default_rng(n + vocab)
    stream = rng.integers(-vocab, vocab + 1, size=n)
    c = huffman.build(stream)
    payload = c.encode(stream)
    assert len(payload) == -(-c.total_bits // 8)
    np.testing.assert_array_equal(c.decode(payload, n), stream)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=300))
def test_encode_decode_roundtrip_property(vals):
    stream = np.array(vals, dtype=np.int64)
    c = huffman.build(stream)
    np.testing.assert_array_equal(c.decode(c.encode(stream), len(stream)), stream)


def test_total_bits_equals_sum_of_lengths():
    stream = np.random.default_rng(4).integers(0, 10, size=2000)
    c = huffman.build(stream)
    idx = np.searchsorted(c.symbols, stream)
    assert c.total_bits == int(c.lengths[idx].sum())


def test_skewed_distribution_shorter_codes_for_frequent():
    stream = np.concatenate(
        [np.zeros(1000, np.int64), np.ones(100, np.int64), np.full(10, 2, np.int64)]
    )
    c = huffman.build(stream)
    assert list(c.symbols) == [0, 1, 2]
    assert c.lengths[0] <= c.lengths[1] <= c.lengths[2]


def test_codebook_bytes():
    assert huffman.codebook_bytes(10) == 50


# -- encoder vs a bit-string reference ---------------------------------------


def _pack_reference(c, stream) -> bytes:
    """MSB-first bit string of every codeword, zero-padded to whole bytes."""
    pos = {int(s): i for i, s in enumerate(c.symbols)}
    bits = "".join(
        format(int(c.codes[pos[int(s)]]), "b").zfill(int(c.lengths[pos[int(s)]]))
        for s in stream
    )
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _check_encoding(c, stream):
    payload = c.encode(stream)
    assert payload == _pack_reference(c, stream)
    np.testing.assert_array_equal(c.decode(payload, len(stream)), stream)


def _fibonacci(k: int) -> np.ndarray:
    f = [1, 1]
    while len(f) < k:
        f.append(f[-1] + f[-2])
    return np.array(f[:k], dtype=np.int64)


# symbols 0..m-1 with n >= m: the symbol span never exceeds the stream
_dense_streams = st.integers(1, 40).flatmap(
    lambda m: st.lists(st.integers(0, m - 1), min_size=m, max_size=400)
)


@settings(max_examples=60, deadline=None)
@given(_dense_streams, st.integers(-(10**6), 10**6))
def test_encode_matches_reference_dense(vals, offset):
    stream = np.array(vals, dtype=np.int64) + offset
    _check_encoding(huffman.build(stream), stream)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=300))
def test_encode_matches_reference_sparse(vals):
    # span 100,001 > n: the lookup falls back to searchsorted
    stream = np.array([-50, 50] + vals, dtype=np.int64) * 1000
    _check_encoding(huffman.build(stream), stream)


@settings(max_examples=30, deadline=None)
@given(st.integers(-(2**40), 2**40), st.integers(1, 700))
def test_encode_matches_reference_single_symbol(sym, n):
    stream = np.full(n, sym, dtype=np.int64)
    _check_encoding(huffman.build(stream), stream)


def test_encode_empty_stream():
    c = huffman.build(np.array([], dtype=np.int64))
    assert c.encode(np.array([], dtype=np.int64)) == b""
    c = huffman.build(np.array([3, 4, 4]))
    assert c.encode(np.array([], dtype=np.int64)) == b""
    assert len(c.decode(b"", 0)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(34, 64), st.data())
def test_encode_matches_reference_long_codewords(k, data):
    """Fibonacci counts give code lengths 1..k-1: codewords above 32 bits
    that straddle 64-bit words at every possible offset."""
    symbols = np.arange(k, dtype=np.int64) * 3 - 7
    c = huffman.build(symbols, _fibonacci(k))
    assert int(c.lengths.max()) == k - 1
    # up to 300 symbols: both sides of the dense-span threshold (span 3k-2)
    picks = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=300))
    stream = symbols[picks]
    if k - 1 <= 57:
        _check_encoding(c, stream)
    else:  # encodable, but longer than the decoder's 57-bit window
        payload = c.encode(stream)
        assert payload == _pack_reference(c, stream)
        with pytest.raises(ValueError):
            c.decode(payload, len(stream))


@pytest.mark.parametrize("k", [34, 40, 47, 52, 58])
def test_decode_long_codewords(k):
    """Codewords of 33..57 bits at every bit offset: each symbol once in
    rising, then falling order, then runs of the longest two."""
    symbols = np.arange(k, dtype=np.int64) * 5 + 11
    c = huffman.build(symbols, _fibonacci(k))
    assert int(c.lengths.max()) == k - 1
    picks = np.concatenate(
        (np.arange(k), np.arange(k)[::-1], np.repeat([0, 1], 9), np.arange(k) % 7)
    )
    _check_encoding(c, symbols[picks])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        _dense_streams,
        st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=300),
    )
)
def test_build_stream_matches_histogram(vals):
    stream = np.array(vals, dtype=np.int64)
    a = huffman.build(stream)
    b = huffman.build(*np.unique(stream, return_counts=True))
    for x, y in zip(
        (a.symbols, a.counts, a.lengths, a.codes), (b.symbols, b.counts, b.lengths, b.codes)
    ):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize(
    "symbols,stream",
    [
        ([0, 2], [0, 1, 2, 2, 0]),  # hole inside a dense span
        ([0, 2], [0, 2, 2, 3]),  # above the span
        ([0, 2], [-1, 0, 2, 2]),  # below the span
        ([0, 10**6], [0, 5]),  # sparse span: searchsorted path
        ([0, 10**6], [10**6 + 1]),
        ([0, 10**6], [-(2**62)]),
    ],
)
def test_encode_rejects_unknown_symbols(symbols, stream):
    c = huffman.build(np.array(symbols), np.ones(len(symbols), np.int64))
    with pytest.raises(ValueError):
        c.encode(np.array(stream, dtype=np.int64))


def test_encode_rejects_empty_code():
    c = huffman.build(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        c.encode(np.array([1]))


def test_encode_rejects_codewords_over_64_bits():
    c = huffman.build(np.arange(70), _fibonacci(70))
    assert int(c.lengths.max()) == 69
    assert c.total_bits > 0
    with pytest.raises(ValueError):
        c.encode(np.zeros(4, dtype=np.int64))
