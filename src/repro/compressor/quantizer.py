"""Linear-scaling quantizer (§III-B).

The quantization interval is ``2×eb`` so that reconstructing at the bin
centre guarantees the point-wise absolute error bound ``eb``. ``quantize``
and ``dequantize`` are the single definition every predictor's compress and
decompress path uses, and ``quantize`` also bins the model's sampled
histogram (``core.histogram.phase_smear``). ``check_bound`` rejects
``eb <= 0``, for which no error-bounded encoding exists; ``quantize`` (and so
every ``compress``) and the ratio-quality model's estimates share it.
``check_field`` rejects an empty field or one holding NaN or ±inf, for which
neither the bound nor the value range is defined; ``compress`` and the
model's constructor share it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["check_bound", "check_field", "quantize", "dequantize"]


def check_bound(eb: float) -> None:
    """Raise ``ValueError`` for an error bound ``eb <= 0``."""
    if eb <= 0:
        raise ValueError("error bound must be positive")


def check_field(data: np.ndarray) -> None:
    """Raise ``ValueError`` for an empty field or one holding NaN or ±inf."""
    if data.size == 0:
        raise ValueError("field is empty")
    if not np.isfinite(data).all():
        raise ValueError("field holds NaN or infinite values")


def quantize(err: np.ndarray, eb: float) -> np.ndarray:
    """Prediction errors → integer quantization codes (bin width 2·eb)."""
    check_bound(eb)
    return np.rint(np.asarray(err, dtype=np.float64) / (2.0 * eb)).astype(np.int64)


def dequantize(codes: np.ndarray, eb: float) -> np.ndarray:
    """Quantization codes → reconstructed prediction errors (bin centres)."""
    return (2.0 * eb) * np.asarray(codes, dtype=np.float64)

