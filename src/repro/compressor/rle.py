"""The optional lossless stage (§III-C-2).

After Huffman coding, residual redundancy in prediction-based compressors is
almost entirely *runs of zero codes* (the predictor nails most points, so
code 0 dominates at moderate/high error bounds). The paper therefore models
the optional lossless encoder (Zstandard in their measurements) as RLE on
zeros, regardless of which lossless coder actually runs; that model, with
its calibrated run-token cost ``MODEL_C1_BITS``, lives in
``core.ratio_model``.

The measured stage here is Zstandard, the paper's and SZ3's coder, at level
3 (``pyarrow.Codec("zstd")``) over the packed Huffman bitstream:
``lossless_bytes`` encodes one frame, and ``inflate`` decodes one stored
body back into the bitstream. This module is the only one that knows the
lossless codec; ``pipeline.to_bytes`` stores the encoded body whenever it
is smaller than the bitstream, and flags it in the header.

The frames carry no content checksum (the codec writes none), so a body
whose compressed bytes were altered can decode to another bitstream of the
declared size; ``pipeline.from_bytes`` then refuses what the Huffman
decoder finds wrong with it.
"""
from __future__ import annotations

import pyarrow as pa

__all__ = ["lossless_bytes", "inflate"]

_ZSTD = pa.Codec("zstd", compression_level=3)
_MAGIC = b"\x28\xb5\x2f\xfd"  # RFC 8878 §3.1.1
_BLOCK_RLE = 1


def lossless_bytes(payload: bytes) -> bytes:
    """The optional lossless stage over the Huffman bitstream: one
    Zstandard level-3 frame, which declares its content size."""
    return _ZSTD.compress(payload, asbytes=True)


def inflate(body: bytes, limit: int) -> bytes:
    """Decode one complete ``lossless_bytes`` frame of at most ``limit``
    bytes. Raises ``ValueError`` for a body that is not one frame with a
    Frame_Content_Size, declares more than ``limit`` bytes, is corrupt or
    cut short, or is followed by bytes."""
    size, end = _frame_extent(body)
    if size > limit:
        raise ValueError(f"zstd frame declares {size} bytes, too long for {limit}")
    if end < len(body):
        raise ValueError("zstd frame is followed by bytes")
    try:
        return _ZSTD.decompress(body, decompressed_size=size, asbytes=True)
    except OSError as exc:
        raise ValueError(f"corrupt zstd frame: {exc}") from None


def _frame_extent(body: bytes) -> tuple[int, int]:
    """(Frame_Content_Size, end offset) of the Zstandard frame that starts
    ``body``, from its header (RFC 8878 §3.1.1.1) and its block headers
    (§3.1.1.2). Raises ``ValueError`` unless the frame declares its size
    and its blocks lie within ``body``."""
    if body[:4] != _MAGIC or len(body) < 5:
        raise ValueError("corrupt zstd frame: bad magic or header")
    fhd = body[4]
    single_segment = fhd >> 5 & 1
    fcs_bytes = (1 if single_segment else 0, 2, 4, 8)[fhd >> 6]
    if not fcs_bytes:
        raise ValueError("zstd frame has no Frame_Content_Size")
    at = 5 + (not single_segment) + (0, 1, 2, 4)[fhd & 3]
    if len(body) < at + fcs_bytes:
        raise ValueError("zstd frame header is truncated")
    size = int.from_bytes(body[at : at + fcs_bytes], "little") + (256 if fcs_bytes == 2 else 0)
    at += fcs_bytes
    last = 0
    while not last:
        if len(body) < at + 3:
            raise ValueError("zstd frame is truncated")
        header = int.from_bytes(body[at : at + 3], "little")
        last, kind, n = header & 1, header >> 1 & 3, header >> 3
        at += 3 + (1 if kind == _BLOCK_RLE else n)
    at += 4 * (fhd >> 2 & 1)  # Content_Checksum
    if at > len(body):
        raise ValueError("zstd frame is truncated")
    return size, at
