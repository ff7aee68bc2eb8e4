"""Sampling helpers for the model (§III-D) and the Table II "Sample Err."
column (§V-B-1): how faithful is the 1% sampled prediction-error
distribution to the full one, measured as |std_sample − std_full| relative
to the data's value range.
"""
from __future__ import annotations

import numpy as np

from ..compressor.predictors import get_predictor

__all__ = ["sample_values", "weighted_std", "sample_error_report"]


def sample_values(data: np.ndarray, rate: float = 0.01, seed: int = 0) -> np.ndarray:
    """Uniform random sample of data values (for σ_D and diagnostics)."""
    flat = np.asarray(data, dtype=np.float64).ravel()
    m = min(flat.size, max(64, int(round(flat.size * rate))))
    idx = np.random.default_rng(seed).choice(flat.size, size=m, replace=False)
    return flat[idx]


def weighted_std(x: np.ndarray, w: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    mu = float((w * x).sum() / w.sum())
    return float(np.sqrt((w * (x - mu) ** 2).sum() / w.sum()))


def sample_error_report(
    data: np.ndarray, predictor: str, rate: float = 0.01, seed: int = 0
) -> dict:
    """Table II "Sample Err.": std of sampled vs full prediction errors,
    relative to the value range (Fig. 4's metric)."""
    pred = get_predictor(predictor)
    full = pred.sample_errors(data, rate=1.0, seed=seed)
    samp = pred.sample_errors(data, rate=rate, seed=seed)
    std_full = weighted_std(full.errors, full.weights)
    std_samp = weighted_std(samp.errors, samp.weights)
    d = np.asarray(data, dtype=np.float64)
    rng = float(d.max() - d.min())
    return {
        "std_full": std_full,
        "std_sample": std_samp,
        "sample_err": abs(std_samp - std_full) / rng if rng > 0 else 0.0,
    }
