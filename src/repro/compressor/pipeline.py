"""End-to-end SZ3-lite compression pipeline, its byte format, and
ground-truth measurement.

``compress`` runs predictor → quantizer → Huffman (+ the lossless stage of
``rle``) and returns exact compressed sizes; ``decompress`` reconstructs the
data (error-bounded) from the in-memory codes; ``trials`` produces, bound
after bound, the measured bit-rates and, through one ``analysis.reference``
of the field, the MSE, max error, PSNR and (optionally) SSIM the model is
evaluated against in Table II (``measure`` is its one-bound case), each
trial with the wall-clock seconds of its stages (Table E1). ``check_error``
is the one hard-bound check, ``max_err <= eb_abs·(1 + BOUND_RTOL)``: every
trial and every rank the dump writes is held to it. The measured
FFT distortion of Fig. 8 is ``analysis.spectrum_rel_error`` on the
reconstruction.

``to_bytes`` writes the one compressed-byte format (an SZ3-style container,
Liang et al., IEEE TBD 2022) and ``from_bytes`` reads it back. Its fields
are the size accounting, ``nbytes_lossless == len(blob)``, little-endian:
header (32 B: magic ``RQ``, predictor id with the lossless flag in its top bit,
float64 eb, uint32 symbol count k, 4 × uint32 shape zero-padded, 1 pad
byte); codebook (k × int32 symbol + uint8 code length, 5 B/symbol; the
canonical codewords follow from the lengths); float32 side data (interp
anchors / regression coefficients, ``side_shape``); body
(``rle.lossless_bytes(Huffman bitstream)``, one Zstandard frame, or the
bitstream when that is no smaller). ``nbytes_huffman`` charges the
bitstream in place of the body. The model mirrors both.
"""
from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .. import analysis
from . import huffman, rle
from .predictors import get_predictor
from .quantizer import check_bound, check_field, p0_of

__all__ = [
    "CompressedField", "compress", "decompress", "measure", "trials", "to_bytes", "from_bytes",
    "overhead_bytes", "check_error", "BOUND_RTOL", "HEADER_BYTES",
]

_HEADER = struct.Struct("<2sBdI4Ix")
HEADER_BYTES = _HEADER.size  # 32
_MAGIC = b"RQ"
_PREDICTOR_IDS = ("lorenzo", "interp", "regression")
_LOSSLESS_FLAG = 0x80
_CODEBOOK = np.dtype([("symbol", "<i4"), ("length", "u1")])  # 5 B per symbol

#: Relative slack on ``max_err <= eb_abs``: the error is computed in float64
#: and can pass a bound the compressor meets by one rounding step.
BOUND_RTOL = 1e-9


def overhead_bytes(n_symbols: int, side_bytes: int) -> int:
    """Bytes of a blob besides its body: header, codebook of ``n_symbols``
    distinct codes, and ``side_bytes`` of side data. The compressor's size
    accounting and the model's estimate both charge this."""
    return _CODEBOOK.itemsize * n_symbols + side_bytes + HEADER_BYTES


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
    predict_s: float = 0.0  # seconds of prediction + quantization (``_encode``)
    huffman_s: float = 0.0  # seconds of Huffman build + encode (``_encode``)
    n_points: int = field(init=False)

    def __post_init__(self):
        self.n_points = int(np.prod(self.shape))

    # -- sizes ----------------------------------------------------------
    def _overhead_bytes(self) -> int:
        return overhead_bytes(len(self.code.symbols), self.side_bytes)

    @property
    def nbytes_huffman(self) -> int:
        """Total size with Huffman only."""
        return -(-self.code.total_bits // 8) + self._overhead_bytes()

    @cached_property
    def body(self) -> bytes:
        """The stored bitstream: the lossless stage over ``payload`` (run
        once per field), or ``payload`` itself when that is no smaller."""
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
        return p0_of(self.code.symbols, self.code.counts)


def compress(data: np.ndarray, predictor: str, eb_abs: float) -> CompressedField:
    """Compress ``data`` with a point-wise absolute error bound ``eb_abs``.
    Raises ``ValueError`` for an empty or non-finite field (``check_field``)
    and for a bound outside ``0 < eb_abs < inf`` (``check_bound``)."""
    check_field(data)
    return _encode(data, predictor, eb_abs)


def _encode(data: np.ndarray, predictor: str, eb_abs: float) -> CompressedField:
    """``compress`` of a field that ``check_field`` has passed, timing its
    two stages."""
    check_bound(eb_abs)
    pred = get_predictor(predictor)
    t0 = time.perf_counter()
    codes, extras = pred.compress(data, eb_abs)
    t1 = time.perf_counter()
    code = huffman.build(codes)
    payload = code.encode(codes)
    t2 = time.perf_counter()
    return CompressedField(
        predictor=predictor,
        eb_abs=float(eb_abs),
        shape=tuple(data.shape),
        codes=codes,
        extras=extras,
        payload=payload,
        code=code,
        side_bytes=pred.side_bytes(tuple(data.shape)),
        predict_s=t1 - t0,
        huffman_s=t2 - t1,
    )


def decompress(c: CompressedField) -> np.ndarray:
    """Reconstruct the array (|orig - recon| ≤ eb_abs point-wise)."""
    pred = get_predictor(c.predictor)
    return pred.decompress(c.codes, c.shape, c.eb_abs, c.extras)


def check_error(c: CompressedField, quality: dict) -> dict:
    """``quality`` (a ``judge`` of ``c``'s reconstruction) if its ``max_err``
    is within ``c.eb_abs·(1 + BOUND_RTOL)``, else ``ValueError`` (NaN too)."""
    if not quality["max_err"] <= c.eb_abs * (1.0 + BOUND_RTOL):
        raise ValueError(
            f"{c.predictor}: max error {quality['max_err']!r} exceeds the bound {c.eb_abs!r}"
        )
    return quality


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
    lossless = _LOSSLESS_FLAG if c.body is not c.payload else 0
    pid = _PREDICTOR_IDS.index(c.predictor) | lossless
    dims = tuple(c.shape) + (0,) * (4 - len(c.shape))
    header = _HEADER.pack(_MAGIC, pid, c.eb_abs, len(book), *dims)
    return b"".join((header, book.tobytes(), c.extras.astype("<f4").tobytes(), c.body))


def from_bytes(blob: bytes) -> CompressedField:
    """Parse a :func:`to_bytes` blob back into a :class:`CompressedField`,
    decoding its Huffman bitstream. Raises ``ValueError`` for a bad magic,
    truncated or trailing bytes, an unknown predictor id, a shape of zero or
    over 4 dims, a bad codebook or error bound, a corrupt lossless body, a
    bitstream that ends before every code is decoded, or an unused symbol."""
    if len(blob) < HEADER_BYTES:
        raise ValueError("truncated header")
    magic, pid, eb, k, *dims = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if pid & ~_LOSSLESS_FLAG >= len(_PREDICTOR_IDS):
        raise ValueError(f"unknown predictor id {pid & ~_LOSSLESS_FLAG}")
    shape = tuple(d for d in dims if d)
    if not shape or tuple(dims) != shape + (0,) * (4 - len(shape)):
        raise ValueError(f"bad shape {tuple(dims)}: need 1-4 nonzero leading dims")
    if not 0 < eb < math.inf:
        raise ValueError(f"bad error bound {eb}")
    pred = get_predictor(_PREDICTOR_IDS[pid & ~_LOSSLESS_FLAG])
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
    if pid & _LOSSLESS_FLAG:
        payload = rle.inflate(payload, -(-n * huffman.MAX_DECODE_BITS // 8))
    code = huffman.from_lengths(symbols, book["length"].astype(np.int64), None)
    codes = code.decode(payload, n)
    used, code.counts = huffman.histogram(codes)
    if len(used) != k:  # every decoded code is a codebook symbol
        raise ValueError("codebook lists a symbol the bitstream never uses")
    side = np.frombuffer(blob, "<f4", math.prod(side_shape), side_at).reshape(side_shape)
    return CompressedField(
        pred.name, eb, shape, codes, side, payload, code, pred.side_bytes(shape)
    )


def trials(
    data: np.ndarray, predictor: str, ebs_abs: Iterable[float], with_ssim: bool = True
) -> Iterator[dict]:
    """Ground-truth metrics of ``data`` at each bound of ``ebs_abs``, in
    order: the trial-and-error baseline's unit of work, a full compression,
    decompression and post-hoc analysis pass per bound.

    The field is checked once (``check_field``) and prepared once for
    judging (``analysis.reference``); each trial compresses its float64
    view. The size fields come from the compressed field and ``mse``,
    ``max_err``, ``psnr`` and ``ssim`` from the reference's ``judge``
    (``ssim`` is NaN unless ``with_ssim``). The trial's wall-clock seconds
    follow, stage by stage: ``predict_s`` (prediction + quantization),
    ``huffman_s`` (Huffman build + encode), ``lossless_s`` (the ``body``),
    ``decompress_s`` and ``judge_s``. Each trial is held to the hard bound
    right after its judge (``check_error``). A caller that stops early skips
    the remaining trials.
    """
    check_field(data)
    ref = analysis.reference(data, with_ssim)
    for eb_abs in ebs_abs:
        c = _encode(ref.orig, predictor, eb_abs)
        t0 = time.perf_counter()
        c.body  # the lossless stage, cached on the field
        t1 = time.perf_counter()
        rec = decompress(c)
        t2 = time.perf_counter()
        quality = ref.judge(rec)
        t3 = time.perf_counter()
        check_error(c, quality)
        yield {
            "predictor": predictor,
            "eb_abs": float(eb_abs),
            "bitrate_huff": c.bitrate(lossless=False),
            "bitrate_ll": c.bitrate(lossless=True),
            "nbytes_huff": c.nbytes_huffman,
            "nbytes_ll": c.nbytes_lossless,
            "p0": c.p0,
            **quality,
            "predict_s": c.predict_s,
            "huffman_s": c.huffman_s,
            "lossless_s": t1 - t0,
            "decompress_s": t2 - t1,
            "judge_s": t3 - t2,
        }


def measure(data: np.ndarray, predictor: str, eb_abs: float, with_ssim: bool = True) -> dict:
    """Ground-truth metrics for one (field, predictor, eb) configuration:
    the one-bound case of ``trials``."""
    return next(trials(data, predictor, [eb_abs], with_ssim))
