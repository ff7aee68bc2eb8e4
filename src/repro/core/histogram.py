"""Quantized prediction-error histogram estimation (§III-D).

The model quantizes the *sampled* prediction errors (computed on original
values) at a given error bound to get an estimated quantization-code
histogram. This estimate distorts because the real compressor predicts from
lossily *reconstructed* neighbours; the paper adds a correction layer
(Eq. 9) that transfers codes to ±1 neighbouring bins with an empirical
per-predictor constant, active when the central bin dominates.

``phase_smear`` is our form of that correction, with Eq. 9's structure
(±1-bin even transfers, per-predictor/dimension empirical constants) but a
mechanistic transfer amount: with a lattice quantizer, a prediction error δ
whose value sits a fraction ``f = δ/2e − round(δ/2e)`` into its bin crosses
into the adjacent bin with probability ≈ ``α·|f|`` once the phases of the
reconstructed neighbours are accounted for (α = 1 is exact for 1D Lorenzo;
higher-dimensional stencils combine more independent phases, raising α —
our analogue of the paper's per-predictor Eq. 9 constant; see DESIGN.md).
The bins come from ``quantizer.quantize``, the compressor's own rounding
rule, and are counted by ``huffman.histogram``, the one binning rule, which
also counts the real codes the compressor's Huffman code is built from.
The paper-literal Eq. 9 is not implemented: its ``(1−p0)`` factor vanishes
as the sampled histogram saturates (p0 → 1), the regime that needs the
correction most. With α = 0 (interp, regression) the smear is the raw
sampled histogram.
"""
from __future__ import annotations

import numpy as np

from ..compressor.huffman import histogram
from ..compressor.quantizer import quantize

__all__ = ["phase_smear", "phase_alpha"]

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
    """Weighted code histogram with phase-based ±1-bin transfer (see module
    docstring) → (sorted distinct codes, weighted counts); Σ counts ≈ number
    of codes the compressor will emit (the weights restore each stratum's
    share)."""
    x = np.asarray(errors, dtype=np.float64) / (2.0 * eb)
    w = np.asarray(weights, dtype=np.float64)
    c0 = quantize(errors, eb)
    f = x - c0
    t = np.clip(alpha * np.abs(f), 0.0, 1.0)  # transfer probability
    codes = np.concatenate([c0, c0 + np.sign(f).astype(np.int64)])
    return histogram(codes, np.concatenate([w * (1.0 - t), w * t]))

