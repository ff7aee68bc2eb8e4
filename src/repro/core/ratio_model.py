"""Compression-ratio model (§III-C): Huffman efficiency, RLE/lossless
efficiency, and the error-bound ↔ bit-rate inversion.

* Eq. (1): Huffman bit-rate ≈ code-histogram entropy, with the most frequent
  code's length clamped to the 1-bit minimum.
* Eq. (4): extra ratio of the optional lossless stage modelled as RLE on
  zero runs, ``R = 1/(C1(1-p0)P0 + (1-P0))`` with ``P0 = p0·l0/B``.
* Eq. (2): ``e* = 2^(B-B*)·e`` — every doubling of the error bound costs
  ~1 bit — applied as a (rapidly converging) fixed point on the model, with
  a bisection fallback for the low-bit-rate regime where Eq. (3)'s
  approximation breaks (the paper switches to profiled p0 anchors there,
  Eq. 8; we solve the same profiled relation numerically, which is robust
  to the paper's C1-unit ambiguity in Eq. 8).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "huffman_bitrate",
    "rle_ratio",
    "lossless_bitrate",
    "invert_bitrate",
    "MODEL_C1_BITS",
    "MODEL_RMAX",
]

#: Eq. (4)/(5) constants, calibrated once against the measured zlib stage on
#: the synthetic corpus (the paper calibrates C1 against Zstandard): C1 is
#: the fixed cost in bits of one zero-run token; RMAX caps the effective run
#: length (real coders cap match lengths / window reach, which bounds the
#: achievable extra ratio at p0 → 1).
MODEL_C1_BITS = 5.0
MODEL_RMAX = 2048.0


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


def rle_ratio(
    p0: float,
    bitrate: float,
    c1_bits: float = MODEL_C1_BITS,
    rmax: float = MODEL_RMAX,
) -> float:
    """Eq. (4): extra compression ratio of the lossless stage (≥ 1).

    ``p0``: fraction of zero codes; ``bitrate``: Huffman bits/code. Zero's
    Huffman code length l0 = 1 bit once p0 > 0.5 (the regime where the
    lossless stage matters at all); below that the stage is modelled as a
    no-op, matching the measured behaviour (Fig. 3: lossless efficiency
    "only complements Huffman after it reaches ~1 bit/symbol"). The mean
    zero-run length n0 = 1/(1-p0) (Eq. 7) is capped at ``rmax``.
    """
    if p0 <= 0.5 or bitrate <= 0:
        return 1.0
    l0 = 1.0
    P0 = min(1.0, p0 * l0 / bitrate)  # zero codes' share of encoded bits
    e0 = c1_bits * max(1.0 - p0, 1.0 / rmax) / l0  # Eq. (5), n0 capped
    denom = max(e0 * P0 + (1.0 - P0), 1e-9)
    return max(1.0, 1.0 / denom)


def lossless_bitrate(
    bitrate: float,
    p0: float,
    c1_bits: float = MODEL_C1_BITS,
    rmax: float = MODEL_RMAX,
) -> float:
    """Bits/code after Huffman + modelled RLE stage."""
    return bitrate / rle_ratio(p0, bitrate, c1_bits, rmax)


def invert_bitrate(
    est_fn,
    target: float,
    eb_lo: float,
    eb_hi: float,
    tol: float = 1e-3,
    max_iter: int = 60,
) -> float:
    """Find the error bound whose estimated bit-rate equals ``target``.

    ``est_fn(eb) -> bits/point`` must be (weakly) decreasing in ``eb``.
    Starts with Eq. (2) fixed-point steps (`e ← e·2^(B(e)-B*)`), falling
    back to bisection on [eb_lo, eb_hi] — both operate purely on the model,
    so the cost is a handful of histogram evaluations on the 1% sample
    (this is the whole point of the model vs trial-and-error). The fixed
    point is why this is not the quality inversions' plain log bisection:
    on 51 bench inversions that bisection needed 787 estimates against 599
    (DESIGN.md §2, RLE bullet).
    """
    lo, hi = float(eb_lo), float(eb_hi)
    e = float(np.sqrt(lo * hi))
    for _ in range(8):  # Eq. (2) phase
        b = est_fn(e)
        if abs(b - target) < tol:
            return min(max(e, lo), hi)
        step = np.clip(b - target, -8.0, 8.0)
        e = float(np.clip(e * 2.0**step, lo, hi))
    # bisection fallback (handles the flat low-bit-rate / RLE regime)
    blo, bhi = est_fn(lo), est_fn(hi)
    if target >= blo:
        return lo
    if target <= bhi:
        return hi
    for _ in range(max_iter):
        mid = np.sqrt(lo * hi)
        bm = est_fn(mid)
        if abs(bm - target) < tol:
            return float(mid)
        if bm > target:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))
