"""Post-hoc analysis quality model (§III-E).

Estimates the compression-error distribution from the quantizer (uniform
within non-central bins, concentrated within the central bin — Eqs. 10/11)
and propagates it through the analysis metrics:

* PSNR (Eq. 12): ``20·log10(range) − 10·log10(σ(E)²)``, which is the
  measured Eq. 14 with σ(E)² for the MSE: the model reads it from
  ``analysis.psnr_db(range, σ(E)²)``.
* SSIM (Eq. 15): ``(2σ_D² + C3)/(2σ_D² + C3 + σ(E)²)``.
* FFT power spectrum (§III-E-4): lossy error acts as white noise adding an
  expected ``N·σ(E)²`` of power per mode, plus a cross-term fluctuation of
  scale ``sqrt(2·N·σ(E)²·P(k)/m)`` per radial bin of m modes.
"""
from __future__ import annotations

import numpy as np

from ..analysis import _K2  # SSIM contrast constant K2 of the measured SSIM
from ..compressor.quantizer import dequantize, quantize

__all__ = [
    "sigma_e2_uniform",
    "sigma_e2_lattice",
    "sigma_e2_interp",
    "sigma_e2",
    "mse_budget",
    "MSE_HEADROOM",
    "ssim_est",
    "fft_rel_error_est",
]

_TAU = 0.25  # sigma_e2_interp's quiescence threshold τ

#: The quality guard of every PSNR-floor decision (use-case 3, the dump):
#: aim at this share of the floor's MSE budget (~1 dB above the floor) to
#: absorb model-estimation error, as use-case 2's 20% bit-rate headroom does.
MSE_HEADROOM = 0.8


def sigma_e2_uniform(eb: float) -> float:
    """Eq. (10): error variance for a purely uniform ±eb distribution."""
    return eb * eb / 3.0


def sigma_e2_lattice(values_sample: np.ndarray, eb: float) -> float:
    """Error variance for a lattice quantizer (our Lorenzo: d' = 2e·round(d/2e),
    the compressor's own ``quantize`` and ``dequantize``).

    The compression error of *every* point is its phase residual on the 2e
    lattice, computable directly from sampled data values. This converges to
    Eq. (10)'s e²/3 whenever the value range spans many bins, and — unlike
    Eq. (10) — stays correct in the extreme regime where 2e exceeds the data
    range (errors then concentrate instead of being uniform).
    """
    v = np.asarray(values_sample, dtype=np.float64)
    resid = v - dequantize(quantize(v, eb), eb)
    return float(np.mean(resid**2))


def sigma_e2(errors: np.ndarray, weights: np.ndarray, eb: float) -> float:
    """Eq. (11): two-component error variance.

    Points whose prediction error falls in the central bin (|err| ≤ eb,
    quantization code 0) keep their prediction error as the compression
    error — a concentrated distribution whose variance we take from the
    sample; all other points have ~uniform error in ±eb.
    """
    e = np.asarray(errors, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    central = np.abs(e) <= eb
    wc = w[central].sum()
    total = w.sum()
    if total <= 0:
        return sigma_e2_uniform(eb)
    p0 = wc / total
    if wc > 0:
        var_central = float((w[central] * e[central] ** 2).sum() / wc)
    else:
        var_central = 0.0
    return float((1.0 - p0) * sigma_e2_uniform(eb) + p0 * var_central)


def sigma_e2_interp(
    errors: np.ndarray,
    weights: np.ndarray,
    group_ids: np.ndarray,
    eb: float,
) -> float:
    """Eq. (11) refined for the multilevel interpolation predictor.

    A code-0 interpolation point's reconstruction error is its prediction
    error *minus the average of its two neighbours' reconstruction errors*
    (the compressor predicts from reconstructed values), and for smooth data
    the two neighbours' errors are nearly equal, so the error *propagates
    unattenuated* down the refinement chain. Concentration below the uniform
    eb²/3 level therefore only survives where the **entire** chain of
    refinement levels is quiescent (|δ| ≪ eb at every level) — which is a
    spatially coherent property, so the quiescent fraction per level is
    roughly the quiescent volume fraction, and the chain-quiescent fraction
    is their minimum over levels:

        v ≈ (1 − Q)·eb²/3 + Q·min(2·E[δ² | quiescent], eb²/3),
        Q = min over refinement groups of  P(|δ| ≤ τ·eb),  τ = 0.25.

    The factor 2 accounts for the inherited neighbour-error term; the cap is
    phase folding. Reduces to Eq. (10) when any level is fully active. Each
    group's weights are summed by ``np.bincount`` over the group ids, the
    binning rule of ``huffman.histogram`` (the model's one rule for counting
    codes and strata); a group of zero weight has no quiet fraction.
    """
    e = np.asarray(errors, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    gid = np.asarray(group_ids, dtype=np.int64)
    u = sigma_e2_uniform(eb)
    quiet = np.abs(e) <= _TAU * eb
    # per-group weight and quiet weight; the ids are the strata 0..G-1
    w_all = np.bincount(gid, w)
    w_quiet = np.bincount(gid[quiet], w[quiet], minlength=w_all.size)
    has = w_all > 0
    q_min = float((w_quiet[has] / w_all[has]).min(initial=1.0))
    wq = w[quiet].sum()
    if wq > 0 and q_min > 0:
        vq = min(2.0 * float((w[quiet] * e[quiet] ** 2).sum() / wq), u)
    else:
        vq = 0.0
    return (1.0 - q_min) * u + q_min * vq


def mse_budget(value_range: float, psnr_db: float) -> float:
    """Eq. (12) solved for σ(E)²: the largest error variance that keeps
    PSNR ≥ ``psnr_db`` against ``value_range``."""
    return value_range * value_range * 10.0 ** (-psnr_db / 10.0)


def ssim_est(sigma_d2: float, s2: float, value_range: float) -> float:
    """Eq. (15); C3 = (K2·range)² as in the measured SSIM. No error
    (``s2 == 0``) or no range (a constant field) gives 1.0, as the measured
    SSIM."""
    if s2 == 0 or value_range == 0:
        return 1.0
    c3 = (_K2 * value_range) ** 2
    return float((2.0 * sigma_d2 + c3) / (2.0 * sigma_d2 + c3 + s2))


def fft_rel_error_est(
    s2: float, n_points: int, pk: np.ndarray, modes_per_bin: np.ndarray
) -> float:
    """Estimated mean relative power-spectrum distortion (§III-E-4).

    ``pk``/``modes_per_bin`` describe the original data's radial spectrum
    (computed once per dataset — part of the analysis setup, not of the
    per-error-bound loop). Bias per mode = N·σ(E)²; the original×error
    cross term fluctuates with std ≈ sqrt(2·N·σ(E)²·P(k)/m) per bin, and
    |ΔP| of a bin combines both in quadrature.
    """
    pk = np.asarray(pk, dtype=np.float64)
    m = np.asarray(modes_per_bin, dtype=np.float64)
    noise = n_points * s2
    est_abs = np.sqrt(noise**2 + 2.0 * noise * pk / np.maximum(m, 1.0))
    ok = pk > 0
    return float(np.mean(est_abs[ok] / pk[ok]))
