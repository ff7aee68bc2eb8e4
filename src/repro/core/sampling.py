"""Sampling helpers for the model (§III-D) and the Table II "Sample Err."
column (§V-B-1): how faithful is the 1% sampled prediction-error
distribution to the full one, measured as |std_sample − std_full| relative
to the data's value range. The sample is the model's own (one
``sample_errors`` draw); the full one is ``prediction_errors``.
"""
from __future__ import annotations

import numpy as np

from ..analysis import value_range
from ..compressor.predictors import draw_sample, get_predictor

__all__ = ["sample_values", "weighted_std", "sample_error_report", "sample_fidelity"]


def sample_values(data: np.ndarray, rate: float, seed: int) -> np.ndarray:
    """Uniform random sample of data values (for σ_D and diagnostics), as
    float64; only the drawn values are cast."""
    flat = np.asarray(data).ravel()
    idx, _ = draw_sample(flat.size, rate, np.random.default_rng(seed))
    return flat[idx].astype(np.float64)


def weighted_std(x: np.ndarray, w: np.ndarray) -> float:
    """Weighted standard deviation; 0.0 for an empty sample (a field whose
    points are all interpolation anchors has no prediction errors)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.size == 0:
        return 0.0
    mu = float((w * x).sum() / w.sum())
    return float(np.sqrt((w * (x - mu) ** 2).sum() / w.sum()))


def sample_error_report(
    data: np.ndarray, predictor: str, rate: float = 0.01, seed: int = 0
) -> dict:
    """Table II "Sample Err.": std of sampled vs full prediction errors,
    relative to the value range (Fig. 4's metric)."""
    sample = get_predictor(predictor).sample_errors(data, rate, seed)
    return sample_fidelity(data, predictor, sample)


def sample_fidelity(data: np.ndarray, predictor: str, sample) -> dict:
    """``sample_error_report`` of a drawn ``sample``: anything with its
    ``errors`` and ``weights``, a ``SampledErrors`` or a model's own."""
    full = get_predictor(predictor).prediction_errors(data)
    std_full = float(np.std(full)) if full.size else 0.0
    std_samp = weighted_std(sample.errors, sample.weights)
    rng = value_range(data)
    return {
        "std_full": std_full,
        "std_sample": std_samp,
        "sample_err": abs(std_samp - std_full) / rng if rng > 0 else 0.0,
    }
