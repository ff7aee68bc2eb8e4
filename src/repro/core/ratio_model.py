"""Compression-ratio model (§III-C): Huffman efficiency, RLE/lossless
efficiency, and the monotone search that inverts the model.

* Eq. (1): Huffman bit-rate ≈ code-histogram entropy, with the most frequent
  code's length clamped to the 1-bit minimum.
* Eq. (4): extra ratio of the optional lossless stage modelled as RLE on
  zero runs, ``R = 1/(C1(1-p0)P0 + (1-P0))`` with ``P0 = p0·l0/B``.
* Eq. (2): ``e* = 2^(B-B*)·e`` — every doubling of the error bound costs
  ~1 bit — is the relation the paper states between bound and bit-rate.
  It fails in the low-bit-rate regime where Eq. (3)'s approximation breaks
  (the paper switches to profiled p0 anchors there, Eq. 8), so the model is
  inverted numerically instead: ``log_bisect`` on the estimated bit-rate,
  which is robust to the paper's C1-unit ambiguity in Eq. 8.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "huffman_bitrate",
    "rle_ratio",
    "lossless_bitrate",
    "log_bisect",
    "MODEL_C1_BITS",
    "MODEL_RMAX",
]

#: Eq. (4)/(5) constants, fitted by ``jobs/calibrate_model.py`` against the
#: measured Zstandard stage (``compressor.rle``, level 3) on Table II's
#: seed-0 bench corpus, as the (C1, RMAX) pair of its grid with the lowest
#: Table II Huff+LL Err. (``results/tableE7_calibration.csv``). C1 is the
#: fixed cost in bits of one zero-run token; RMAX caps the effective run
#: length (real coders cap match lengths / window reach, which bounds the
#: achievable extra ratio at p0 → 1).
MODEL_C1_BITS = 8.0
MODEL_RMAX = 8192.0


def huffman_bitrate(counts: np.ndarray) -> float:
    """Eq. (1): average bits/code from a (possibly weighted) histogram."""
    c = np.asarray(counts, dtype=np.float64)
    c = c[c > 0]
    total = c.sum()
    if total <= 0:
        return 0.0
    p = c / total
    lengths = np.maximum(1.0, -np.log2(p))  # 1-bit minimum code length
    return float((p * lengths).sum())


def rle_ratio(p0: float, bitrate: float) -> float:
    """Eq. (4): extra compression ratio of the lossless stage (≥ 1).

    ``p0``: fraction of zero codes; ``bitrate``: Huffman bits/code. Zero's
    Huffman code length l0 = 1 bit once p0 > 0.5 (the regime where the
    lossless stage matters at all); below that the stage is modelled as a
    no-op, matching the measured behaviour (Fig. 3: lossless efficiency
    "only complements Huffman after it reaches ~1 bit/symbol"). The mean
    zero-run length n0 = 1/(1-p0) (Eq. 7) is capped at ``MODEL_RMAX``.
    """
    if p0 <= 0.5 or bitrate <= 0:
        return 1.0
    l0 = 1.0
    P0 = min(1.0, p0 * l0 / bitrate)  # zero codes' share of encoded bits
    e0 = MODEL_C1_BITS * max(1.0 - p0, 1.0 / MODEL_RMAX) / l0  # Eq. (5), n0 capped
    denom = max(e0 * P0 + (1.0 - P0), 1e-9)
    return max(1.0, 1.0 / denom)


def lossless_bitrate(bitrate: float, p0: float) -> float:
    """Bits/code after Huffman + modelled RLE stage."""
    return bitrate / rle_ratio(p0, bitrate)


def log_bisect(ok, lo: float, hi: float) -> tuple[float, float]:
    """The one monotone search of every model-driven decision: given
    ``ok(lo)`` and not ``ok(hi)`` (``0 < lo < hi``), bisect in log space,
    keeping both, until ``hi/lo < 1.001`` (at least 1, at most 60 steps)
    → ``(lo, hi)``."""
    for _ in range(60):
        mid = float(np.sqrt(lo * hi))
        if ok(mid):
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.001:
            break
    return lo, hi

