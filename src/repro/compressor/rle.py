"""The optional lossless stage (§III-C-2).

After Huffman coding, residual redundancy in prediction-based compressors is
almost entirely *runs of zero codes* (the predictor nails most points, so
code 0 dominates at moderate/high error bounds). The paper therefore models
the optional lossless encoder (Zstandard in their measurements) as RLE on
zeros, regardless of which lossless coder actually runs; that model, with
its calibrated run-token cost ``MODEL_C1_BITS``, lives in
``core.ratio_model``.

The measured stage here is ``zlib`` (stdlib stand-in for Zstandard) over the
packed Huffman bitstream; ``pipeline.to_bytes`` stores its output as the
blob's body whenever it is smaller than the bitstream.
"""
from __future__ import annotations

import zlib

__all__ = ["lossless_bytes"]


def lossless_bytes(payload: bytes) -> bytes:
    """The optional lossless stage over the Huffman bitstream (zlib at its
    default level 6, the Zstandard stand-in; see DESIGN.md §2)."""
    return zlib.compress(payload, 6)
