"""Tests for the lossless stage (§III-C-2 substrate)."""
import numpy as np
import pytest

from repro.compressor import huffman
from repro.compressor.rle import inflate, lossless_bytes


def test_zero_dominant_stream_shrinks():
    """Zero-dominated streams must collapse dramatically in the lossless
    stage over the Huffman bitstream (the effect the paper's Eq. 4 models)."""
    rng = np.random.default_rng(0)
    codes = np.where(rng.random(10000) < 0.98, 0, 1).astype(np.int64)
    payload = huffman.build(codes).encode(codes)
    assert len(lossless_bytes(payload)) < 0.3 * len(payload)


def test_lossless_bytes_compresses_redundant_payload():
    payload = bytes(10000)  # all zero bytes
    assert len(lossless_bytes(payload)) < 200


def test_lossless_bytes_incompressible_payload():
    payload = np.random.default_rng(1).integers(0, 256, 10000, dtype=np.uint8).tobytes()
    assert len(lossless_bytes(payload)) > 9000


def test_inflate_round_trip_and_limit():
    payload = bytes(range(256)) * 40
    body = lossless_bytes(payload)
    assert inflate(body, len(payload)) == payload
    with pytest.raises(ValueError, match="too long"):
        inflate(body, len(payload) - 1)
    with pytest.raises(ValueError, match="truncated"):
        inflate(body[:-4], len(payload))
    with pytest.raises(ValueError, match="corrupt"):
        inflate(b"not a stream", len(payload))
