"""The optional lossless stage (§III-C-2).

After Huffman coding, residual redundancy in prediction-based compressors is
almost entirely *runs of zero codes* (the predictor nails most points, so
code 0 dominates at moderate/high error bounds). The paper therefore models
the optional lossless encoder (Zstandard in their measurements) as RLE on
zeros, regardless of which lossless coder actually runs; that model, with
its calibrated run-token cost ``MODEL_C1_BITS``, lives in
``core.ratio_model``.

The measured stage here is ``zlib`` (stdlib stand-in for Zstandard) over the
packed Huffman bitstream: ``lossless_bytes`` encodes, and ``inflate`` decodes
one stored body back into the bitstream. This module is the only one that
knows the lossless codec; ``pipeline.to_bytes`` stores the encoded body
whenever it is smaller than the bitstream, and flags it in the header.
"""
from __future__ import annotations

import zlib

__all__ = ["lossless_bytes", "inflate"]


def lossless_bytes(payload: bytes) -> bytes:
    """The optional lossless stage over the Huffman bitstream (zlib at its
    default level 6, the Zstandard stand-in; see DESIGN.md §2)."""
    return zlib.compress(payload, 6)


def inflate(body: bytes, limit: int) -> bytes:
    """Decode one complete ``lossless_bytes`` stream of at most ``limit``
    bytes. Raises ``ValueError`` for a corrupt body, one that decodes past
    ``limit``, or one that is cut short or followed by bytes."""
    d = zlib.decompressobj()
    try:
        out = d.decompress(body, limit + 1)
    except zlib.error as exc:
        raise ValueError(f"corrupt zlib body: {exc}") from None
    if len(out) > limit or not d.eof or d.unused_data:
        raise ValueError("zlib body is truncated, too long, or followed by bytes")
    return out
