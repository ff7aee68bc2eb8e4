"""Tests for the lossless stage (§III-C-2 substrate)."""
import numpy as np
import pytest

from repro.compressor import huffman
from repro.compressor.rle import inflate, lossless_bytes


def test_zero_dominant_stream_shrinks():
    """Zero-dominated streams must collapse dramatically in the Zstandard
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
    """One Zstandard frame round-trips; a frame over the limit, cut short,
    followed by bytes, corrupt, or without Frame_Content_Size is refused."""
    payload = bytes(range(256)) * 40
    body = lossless_bytes(payload)
    assert inflate(body, len(payload)) == payload
    assert inflate(lossless_bytes(b""), 0) == b""
    with pytest.raises(ValueError, match="too long"):
        inflate(body, len(payload) - 1)
    with pytest.raises(ValueError, match="truncated"):
        inflate(body[:-4], len(payload))
    with pytest.raises(ValueError, match="followed by bytes"):
        inflate(body + b"\0", len(payload))
    with pytest.raises(ValueError, match="corrupt"):
        inflate(b"not a stream", len(payload))


def test_inflate_refuses_frame_without_content_size():
    """A frame header whose flags declare no Frame_Content_Size (FCS flag 0,
    not single-segment: RFC 8878 §3.1.1.1.1) is refused before decoding."""
    body = bytearray(lossless_bytes(bytes(1000)))
    assert body[4] >> 6 or body[4] >> 5 & 1
    body[4] &= 0x1F
    with pytest.raises(ValueError, match="Frame_Content_Size"):
        inflate(bytes(body), 1000)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 65791, 65792, 300_000])
def test_inflate_reads_every_content_size_field_width(n):
    """Frame_Content_Size is stored in 1, 2 (offset by 256) or 4 bytes by
    size; multi-block frames of incompressible data round-trip too."""
    payload = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()
    assert inflate(lossless_bytes(payload), n) == payload
