"""Quantized prediction-error histogram estimation (§III-D).

The model quantizes the *sampled* prediction errors (computed on original
values) at a given error bound to get an estimated quantization-code
histogram. This estimate distorts because the real compressor predicts from
lossily *reconstructed* neighbours; the paper adds a correction layer
(Eq. 9) that transfers codes to ±1 neighbouring bins with an empirical
per-predictor constant, active when the central bin dominates.

We implement the paper-literal Eq. 9 (``bin_transfer``) and, as the default,
a *phase-based* variant (``phase_smear``) with the same structure (±1-bin
even transfers, per-predictor/dimension empirical constants) but a
mechanistic transfer amount: with a lattice quantizer, a prediction error δ
whose value sits a fraction ``f = δ/2e − round(δ/2e)`` into its bin crosses
into the adjacent bin with probability ≈ ``α·|f|`` once the phases of the
reconstructed neighbours are accounted for (α = 1 is exact for 1D Lorenzo;
higher-dimensional stencils combine more independent phases, raising α —
our analogue of the paper's C2 calibration; see DESIGN.md). Regression
needs no correction: its predictions never depend on reconstructed values.
"""
from __future__ import annotations

import numpy as np

from ..compressor.quantizer import quantize

__all__ = [
    "code_histogram",
    "p0_of",
    "bin_transfer",
    "phase_smear",
    "phase_alpha",
    "C2",
    "THETA2",
]

#: Eq. 9 constants: fraction coefficient per predictor, and the p0 threshold.
C2 = {"lorenzo": 0.2, "interp": 0.1, "regression": 0.0}
THETA2 = 0.8

#: Phase-transfer multiplier α per (predictor, ndim) — calibrated once on
#: the synthetic corpus (see DESIGN.md, "Correction layer (Eq. 9)"); no
#: script in the repository regenerates these values yet.
_ALPHA = {
    "lorenzo": {1: 0.25, 2: 1.0, 3: 1.5, 4: 2.0},
    # interp predicts from reconstructed *averages* whose errors stay small
    # and correlated, so the original-value histogram needs no smearing;
    # regression never feeds reconstructed values back at all.
    "interp": {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0},
    "regression": {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0},
}


def phase_alpha(predictor: str, ndim: int) -> float:
    return _ALPHA.get(predictor, {}).get(ndim, 1.0)


def phase_smear(
    errors: np.ndarray, weights: np.ndarray, eb: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram with phase-based ±1-bin transfer (see module docstring)."""
    x = np.asarray(errors, dtype=np.float64) / (2.0 * eb)
    w = np.asarray(weights, dtype=np.float64)
    c0 = np.rint(x)
    f = x - c0
    t = np.clip(alpha * np.abs(f), 0.0, 1.0)  # transfer probability
    stay_codes = c0.astype(np.int64)
    move_codes = (c0 + np.sign(f)).astype(np.int64)
    codes = np.concatenate([stay_codes, move_codes])
    wts = np.concatenate([w * (1.0 - t), w * t])
    syms, inv = np.unique(codes, return_inverse=True)
    cnts = np.bincount(inv, weights=wts)
    keep = cnts > 0
    return syms[keep], cnts[keep]


def code_histogram(
    errors: np.ndarray, weights: np.ndarray, eb: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted histogram of quantization codes of the sampled errors.

    → (sorted distinct codes, weighted counts); Σ counts ≈ number of codes
    the compressor will emit (the weights restore each stratum's share).
    """
    codes = quantize(errors, eb)
    syms, inv = np.unique(codes, return_inverse=True)
    cnts = np.bincount(inv, weights=np.asarray(weights, dtype=np.float64))
    return syms, cnts


def p0_of(symbols: np.ndarray, counts: np.ndarray) -> float:
    """Fraction of the (estimated) code stream that is code zero."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    i = np.searchsorted(symbols, 0)
    if i < len(symbols) and symbols[i] == 0:
        return float(counts[i] / total)
    return 0.0


def bin_transfer(
    symbols: np.ndarray, counts: np.ndarray, predictor: str
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 9 correction: when p0 ≥ θ2, move ``C2·(1-p0)·N`` codes from each
    bin evenly to its two neighbouring bins (simulating the original-value vs
    reconstructed-value prediction mismatch). No-op otherwise."""
    c2 = C2.get(predictor, 0.0)
    p0 = p0_of(symbols, counts)
    if c2 == 0.0 or p0 < THETA2 or len(symbols) == 0:
        return symbols, counts
    # densify over [min-1, max+1] so transfers can spill outwards
    lo, hi = int(symbols.min()) - 1, int(symbols.max()) + 1
    dense = np.zeros(hi - lo + 1, dtype=np.float64)
    dense[(symbols - lo).astype(np.intp)] = counts
    moved = c2 * (1.0 - p0) * dense
    out = dense - moved
    out[:-1] += 0.5 * moved[1:]  # half to the left neighbour
    out[1:] += 0.5 * moved[:-1]  # half to the right neighbour
    keep = out > 0
    return np.arange(lo, hi + 1)[keep], out[keep]
