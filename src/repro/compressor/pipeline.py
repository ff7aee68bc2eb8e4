"""End-to-end SZ3-lite compression pipeline and ground-truth measurement.

``compress`` runs predictor → quantizer → Huffman (+ zlib lossless stage)
and returns exact compressed sizes; ``decompress`` reconstructs the data
(error-bounded); ``measure`` produces the measured ratio/quality metrics the
model is evaluated against in Table II.

Size accounting (bytes), mirrored by the model:
  huffman payload (Σ freq·len bits)  +  codebook (5 B/symbol)
  + side channel (interp anchors / regression coefficients) + 32 B header.
The lossless variant replaces the huffman payload with
``zlib(packed bitstream)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import analysis
from . import huffman, rle
from .predictors import get_predictor

__all__ = ["CompressedField", "compress", "decompress", "measure", "HEADER_BYTES"]

HEADER_BYTES = 32


@dataclass
class CompressedField:
    """One compressed array plus everything needed to reconstruct it and to
    account its size both with and without the optional lossless stage."""

    predictor: str
    eb_abs: float
    shape: tuple[int, ...]
    codes: np.ndarray
    extras: dict
    payload: bytes  # packed Huffman bitstream
    code: huffman.HuffmanCode
    side_bytes: int
    n_points: int = field(init=False)

    def __post_init__(self):
        self.n_points = int(np.prod(self.shape))

    # -- sizes ----------------------------------------------------------
    @property
    def huffman_payload_bits(self) -> int:
        return self.code.total_bits

    @property
    def nbytes_huffman(self) -> int:
        """Total size with Huffman only."""
        return (
            -(-self.huffman_payload_bits // 8)
            + huffman.codebook_bytes(len(self.code.symbols))
            + self.side_bytes
            + HEADER_BYTES
        )

    @cached_property
    def nbytes_lossless(self) -> int:
        """Total size with Huffman + lossless stage (zlib over bitstream),
        compressed once per field."""
        ll = rle.lossless_bytes(self.payload)
        return (
            min(ll, -(-self.huffman_payload_bits // 8))
            + huffman.codebook_bytes(len(self.code.symbols))
            + self.side_bytes
            + HEADER_BYTES
        )

    def bitrate(self, lossless: bool = False) -> float:
        nb = self.nbytes_lossless if lossless else self.nbytes_huffman
        return 8.0 * nb / self.n_points

    def ratio(self, lossless: bool = False, orig_bytes_per_point: int = 4) -> float:
        nb = self.nbytes_lossless if lossless else self.nbytes_huffman
        return orig_bytes_per_point * self.n_points / nb

    @property
    def p0(self) -> float:
        """Fraction of quantization codes equal to zero."""
        i = np.searchsorted(self.code.symbols, 0)
        if i < len(self.code.symbols) and self.code.symbols[i] == 0:
            return float(self.code.counts[i]) / max(1, self.code.n)
        return 0.0


def compress(data: np.ndarray, predictor: str, eb_abs: float) -> CompressedField:
    """Compress ``data`` with a point-wise absolute error bound ``eb_abs``."""
    pred = get_predictor(predictor)
    codes, extras = pred.compress(data, eb_abs)
    code = huffman.build(codes)
    payload = code.encode(codes)
    return CompressedField(
        predictor=predictor,
        eb_abs=float(eb_abs),
        shape=tuple(data.shape),
        codes=codes,
        extras=extras,
        payload=payload,
        code=code,
        side_bytes=pred.side_bytes(tuple(data.shape)),
    )


def decompress(c: CompressedField) -> np.ndarray:
    """Reconstruct the array (|orig - recon| ≤ eb_abs point-wise)."""
    pred = get_predictor(c.predictor)
    return pred.decompress(c.codes, c.shape, c.eb_abs, c.extras)


def measure(
    data: np.ndarray,
    predictor: str,
    eb_abs: float,
    with_ssim: bool = True,
    with_fft: bool = False,
) -> dict:
    """Ground-truth metrics for one (field, predictor, eb) configuration.

    This is the trial-and-error baseline's unit of work: a full compression,
    decompression and post-hoc analysis pass.
    """
    c = compress(data, predictor, eb_abs)
    recon = decompress(c)
    d = np.asarray(data, np.float64)
    out = {
        "predictor": predictor,
        "eb_abs": float(eb_abs),
        "bitrate_huff": c.bitrate(lossless=False),
        "bitrate_ll": c.bitrate(lossless=True),
        "nbytes_huff": c.nbytes_huffman,
        "nbytes_ll": c.nbytes_lossless,
        "p0": c.p0,
        "psnr": analysis.psnr(d, recon),
        "max_err": float(np.max(np.abs(d - recon))),
    }
    out["ssim"] = analysis.ssim_global(d, recon) if with_ssim else float("nan")
    out["fft_err"] = (
        analysis.spectrum_rel_error(d, recon) if with_fft else float("nan")
    )
    return out
