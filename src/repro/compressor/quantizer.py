"""Linear-scaling quantizer (§III-B).

The quantization interval is ``2×eb`` so that reconstructing at the bin
centre guarantees the point-wise absolute error bound ``eb``. ``quantize``
and ``dequantize`` are the single definition every predictor's compress and
decompress path uses, and ``quantize`` also bins the model's raw sampled
histogram (``core.histogram.code_histogram``). ``quantize`` rejects
``eb <= 0``, for which no error-bounded encoding exists.
"""
from __future__ import annotations

import numpy as np

__all__ = ["quantize", "dequantize", "reconstruction_errors"]


def quantize(err: np.ndarray, eb: float) -> np.ndarray:
    """Prediction errors → integer quantization codes (bin width 2·eb)."""
    if eb <= 0:
        raise ValueError("error bound must be positive")
    return np.rint(np.asarray(err, dtype=np.float64) / (2.0 * eb)).astype(np.int64)


def dequantize(codes: np.ndarray, eb: float) -> np.ndarray:
    """Quantization codes → reconstructed prediction errors (bin centres)."""
    return (2.0 * eb) * np.asarray(codes, dtype=np.float64)


def reconstruction_errors(err: np.ndarray, eb: float) -> np.ndarray:
    """Per-point compression error after quantizing ``err`` (|·| ≤ eb)."""
    return np.asarray(err, dtype=np.float64) - dequantize(quantize(err, eb), eb)
