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
