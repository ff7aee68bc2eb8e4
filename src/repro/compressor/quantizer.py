"""Linear-scaling quantizer (§III-B).

The quantization interval is ``2×eb`` so that reconstructing at the bin
centre guarantees the point-wise absolute error bound ``eb``. ``quantize``
and ``dequantize`` are the single definition every predictor's compress and
decompress path uses; ``quantize`` also bins the model's sampled histogram
(``core.histogram.phase_smear``), and the model's Lorenzo lattice residual
is ``v − dequantize(quantize(v))`` (``core.quality_model.sigma_e2_lattice``).
``check_bound`` rejects every bound but ``0 < eb < inf`` (the rule
``pipeline.from_bytes`` applies to a stored bound): no error-bounded
encoding exists for ``eb <= 0``, and a NaN or infinite bound bounds
nothing; ``quantize``, ``compress`` and the model's estimates share it.
``check_field`` rejects a field whose dtype is not real numeric (complex,
object, string, ...), whose values ``|x − x'| ≤ eb`` cannot bound, and an
empty field or one holding NaN or ±inf, for which neither the bound nor the
value range is defined; ``compress`` and the model's constructor share it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["check_bound", "check_field", "quantize", "dequantize", "p0_of"]


def check_bound(eb: float) -> None:
    """Raise ``ValueError`` unless ``0 < eb < inf`` (so also for NaN)."""
    if not 0 < eb < np.inf:
        raise ValueError(f"error bound must be positive and finite, got {eb}")


def check_field(data: np.ndarray) -> None:
    """Raise ``ValueError`` for a field that is not real numeric (bool, int,
    uint or float), is empty, or holds NaN or ±inf."""
    if data.dtype.kind not in "biuf":
        raise ValueError(f"field dtype {data.dtype} is not real numeric")
    if data.size == 0:
        raise ValueError("field is empty")
    if not np.isfinite(data).all():
        raise ValueError("field holds NaN or infinite values")


def quantize(err: np.ndarray, eb: float) -> np.ndarray:
    """Prediction errors → integer quantization codes (bin width 2·eb).
    ``err`` is divided into one float64 buffer, rounded in place, so a raw
    float32 field needs no float64 copy first. Raises ``ValueError`` for a
    code outside int64, which the cast wraps."""
    check_bound(eb)
    q = np.divide(err, 2.0 * eb, dtype=np.float64)
    np.rint(q, out=q)
    if not -(2.0**63) <= q.min(initial=0.0) <= q.max(initial=0.0) < 2.0**63:
        raise ValueError(f"quantization code outside int64 at error bound {eb}")
    return q.astype(np.int64)


def dequantize(codes: np.ndarray, eb: float) -> np.ndarray:
    """Quantization codes → reconstructed prediction errors (bin centres)."""
    return np.multiply(codes, 2.0 * eb, dtype=np.float64)


def p0_of(symbols: np.ndarray, counts: np.ndarray) -> float:
    """Fraction of the (estimated) code stream that is code zero."""
    total = counts.sum()
    return float(counts[symbols == 0].sum() / total) if total > 0 else 0.0
