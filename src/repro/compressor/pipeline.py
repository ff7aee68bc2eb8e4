"""End-to-end SZ3-lite compression pipeline, its byte format, and
ground-truth measurement.

``compress`` runs predictor → quantizer → Huffman (+ zlib lossless stage)
and returns exact compressed sizes; ``decompress`` reconstructs the data
(error-bounded) from the in-memory codes; ``measure`` produces the measured
bit-rates, PSNR and (optionally) SSIM the model is evaluated against in
Table II. The measured FFT distortion of Fig. 8 is
``analysis.spectrum_rel_error`` on the reconstruction.

``to_bytes`` writes the one compressed-byte format (an SZ3-style container,
Liang et al., IEEE TBD 2022) and ``from_bytes`` reads it back. Its fields
are the size accounting, ``nbytes_lossless == len(blob)``, little-endian:
header (32 B: magic ``RQ``, predictor id with the zlib flag in its top bit,
float64 eb, uint32 symbol count k, 4 × uint32 shape zero-padded, 1 pad
byte); codebook (k × int32 symbol + uint8 code length, 5 B/symbol; the
canonical codewords follow from the lengths); float32 side data (interp
anchors / regression coefficients, ``side_shape``); body (``zlib(Huffman
bitstream)``, or the bitstream when zlib is no smaller). ``nbytes_huffman``
charges the bitstream in place of the body. The model mirrors both.
"""
from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import analysis
from . import huffman, rle
from .predictors import get_predictor
from .quantizer import check_field

__all__ = [
    "CompressedField", "compress", "decompress", "measure", "to_bytes", "from_bytes",
    "HEADER_BYTES",
]

_HEADER = struct.Struct("<2sBdI4Ix")
HEADER_BYTES = _HEADER.size  # 32
_MAGIC = b"RQ"
_PREDICTOR_IDS = ("lorenzo", "interp", "regression")
_ZLIB_FLAG = 0x80
_CODEBOOK = np.dtype([("symbol", "<i4"), ("length", "u1")])  # 5 B per symbol


@dataclass
class CompressedField:
    """One compressed array plus everything needed to reconstruct it and to
    account its size both with and without the optional lossless stage."""

    predictor: str
    eb_abs: float
    shape: tuple[int, ...]
    codes: np.ndarray
    extras: np.ndarray  # float32 side array, predictor.side_shape(shape)
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

    def _overhead_bytes(self) -> int:
        return huffman.codebook_bytes(len(self.code.symbols)) + self.side_bytes + HEADER_BYTES

    @property
    def nbytes_huffman(self) -> int:
        """Total size with Huffman only."""
        return -(-self.huffman_payload_bits // 8) + self._overhead_bytes()

    @cached_property
    def body(self) -> bytes:
        """The stored bitstream: zlib over ``payload`` (run once per field),
        or ``payload`` itself when zlib does not make it smaller."""
        ll = rle.lossless_bytes(self.payload)
        return ll if len(ll) < len(self.payload) else self.payload

    @property
    def nbytes_lossless(self) -> int:
        """Total size with Huffman + lossless stage: ``len(to_bytes(self))``."""
        return len(self.body) + self._overhead_bytes()

    def bitrate(self, lossless: bool = False) -> float:
        nb = self.nbytes_lossless if lossless else self.nbytes_huffman
        return 8.0 * nb / self.n_points

    @property
    def p0(self) -> float:
        """Fraction of quantization codes equal to zero."""
        i = np.searchsorted(self.code.symbols, 0)
        if i < len(self.code.symbols) and self.code.symbols[i] == 0:
            return float(self.code.counts[i]) / max(1, self.code.n)
        return 0.0


def compress(data: np.ndarray, predictor: str, eb_abs: float) -> CompressedField:
    """Compress ``data`` with a point-wise absolute error bound ``eb_abs``.
    Raises ``ValueError`` for an empty or non-finite field (``check_field``)."""
    check_field(data)
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


def to_bytes(c: CompressedField) -> bytes:
    """The compressed blob of ``c``: ``len(to_bytes(c)) == c.nbytes_lossless``.
    Raises ``ValueError`` for a shape outside 1-4 dims of 1..2**32-1 and for
    a code outside int32 (the codebook's 4-byte symbol)."""
    if not 1 <= len(c.shape) <= 4 or not 0 < min(c.shape) <= max(c.shape) < 1 << 32:
        raise ValueError(f"cannot store shape {c.shape}: need 1-4 dims of 1..2**32-1")
    book = np.empty(len(c.code.symbols), _CODEBOOK)
    book["symbol"], book["length"] = c.code.symbols, c.code.lengths
    if not np.array_equal(book["symbol"], c.code.symbols):
        raise ValueError("quantization code outside int32: no outlier channel to store it")
    pid = _PREDICTOR_IDS.index(c.predictor) | (_ZLIB_FLAG if c.body is not c.payload else 0)
    dims = tuple(c.shape) + (0,) * (4 - len(c.shape))
    header = _HEADER.pack(_MAGIC, pid, c.eb_abs, len(book), *dims)
    return b"".join((header, book.tobytes(), c.extras.astype("<f4").tobytes(), c.body))


def from_bytes(blob: bytes) -> CompressedField:
    """Parse a :func:`to_bytes` blob back into a :class:`CompressedField`,
    decoding its Huffman bitstream. Raises ``ValueError`` for a bad magic,
    truncated or trailing bytes, an unknown predictor id, a shape of zero or
    over 4 dims, a bad codebook or error bound, a corrupt zlib body, or a
    bitstream that ends before every code is decoded."""
    if len(blob) < HEADER_BYTES:
        raise ValueError("truncated header")
    magic, pid, eb, k, *dims = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if pid & ~_ZLIB_FLAG >= len(_PREDICTOR_IDS):
        raise ValueError(f"unknown predictor id {pid & ~_ZLIB_FLAG}")
    shape = tuple(d for d in dims if d)
    if not shape or tuple(dims) != shape + (0,) * (4 - len(shape)):
        raise ValueError(f"bad shape {tuple(dims)}: need 1-4 nonzero leading dims")
    if not 0 < eb < math.inf:
        raise ValueError(f"bad error bound {eb}")
    pred = get_predictor(_PREDICTOR_IDS[pid & ~_ZLIB_FLAG])
    side_shape, n = pred.side_shape(shape), pred.coded_count(shape)
    side_at = HEADER_BYTES + _CODEBOOK.itemsize * k
    body_at = side_at + 4 * math.prod(side_shape)
    if len(blob) < body_at:
        raise ValueError("truncated codebook or side data")
    book = np.frombuffer(blob, _CODEBOOK, k, HEADER_BYTES)
    symbols = book["symbol"].astype(np.int64)
    if np.any(np.diff(symbols) <= 0):
        raise ValueError("codebook symbols are not sorted and distinct")
    payload = blob[body_at:]
    if pid & _ZLIB_FLAG:
        payload = _inflate(payload, -(-n * huffman.MAX_DECODE_BITS // 8))
    code = huffman.from_lengths(symbols, book["length"].astype(np.int64), np.zeros(k, np.int64))
    codes = code.decode(payload, n)
    code.counts = np.bincount(np.searchsorted(symbols, codes), minlength=k)
    side = np.frombuffer(blob, "<f4", math.prod(side_shape), side_at).reshape(side_shape)
    return CompressedField(
        pred.name, eb, shape, codes, side, payload, code, pred.side_bytes(shape)
    )


def _inflate(body: bytes, limit: int) -> bytes:
    """zlib-decompress one complete stream of at most ``limit`` bytes."""
    d = zlib.decompressobj()
    try:
        out = d.decompress(body, limit + 1)
    except zlib.error as exc:
        raise ValueError(f"corrupt zlib body: {exc}") from None
    if len(out) > limit or not d.eof or d.unused_data:
        raise ValueError("zlib body is truncated, too long, or followed by bytes")
    return out


def measure(data: np.ndarray, predictor: str, eb_abs: float, with_ssim: bool = True) -> dict:
    """Ground-truth metrics for one (field, predictor, eb) configuration.

    This is the trial-and-error baseline's unit of work: a full compression,
    decompression and post-hoc analysis pass. ``ssim`` is NaN unless
    ``with_ssim``.
    """
    c = compress(data, predictor, eb_abs)
    recon = decompress(c)
    d = np.asarray(data, np.float64)
    return {
        "predictor": predictor,
        "eb_abs": float(eb_abs),
        "bitrate_huff": c.bitrate(lossless=False),
        "bitrate_ll": c.bitrate(lossless=True),
        "nbytes_huff": c.nbytes_huffman,
        "nbytes_ll": c.nbytes_lossless,
        "p0": c.p0,
        "psnr": analysis.psnr(d, recon),
        "max_err": float(np.max(np.abs(d - recon))),
        "ssim": analysis.ssim_global(d, recon) if with_ssim else float("nan"),
    }
