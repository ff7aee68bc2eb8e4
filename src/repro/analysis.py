"""Post-hoc analysis metrics (§III-E): PSNR, SSIM, FFT power spectrum.

These are the *measured* counterparts of the quality model in
``repro.core.quality_model``. SSIM is the global-statistics form the paper's
derivation (Eq. 16) starts from, with the standard constants
``C3=(K2·range)²`` (variance term) and ``C4=(K1·range)²`` (mean term).
"""
from __future__ import annotations

import numpy as np

__all__ = ["psnr", "ssim_global", "power_spectrum", "spectrum_rel_error", "value_range"]

_K1, _K2 = 0.01, 0.03


def value_range(data: np.ndarray) -> float:
    d = np.asarray(data, dtype=np.float64)
    return float(d.max() - d.min())


def psnr(orig: np.ndarray, recon: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (Eq. 14), peak = value range."""
    o = np.asarray(orig, dtype=np.float64)
    r = np.asarray(recon, dtype=np.float64)
    mse = float(np.mean((o - r) ** 2))
    rng = value_range(o)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(rng * rng / mse)


def ssim_global(orig: np.ndarray, recon: np.ndarray) -> float:
    """Global-statistics SSIM (Eq. 16) with standard K1/K2 constants."""
    o = np.asarray(orig, dtype=np.float64).ravel()
    r = np.asarray(recon, dtype=np.float64).ravel()
    rng = value_range(o)
    c4 = (_K1 * rng) ** 2  # mean (luminance) constant
    c3 = (_K2 * rng) ** 2  # variance (contrast/structure) constant
    mu_o, mu_r = o.mean(), r.mean()
    var_o, var_r = o.var(), r.var()
    cov = float(np.mean((o - mu_o) * (r - mu_r)))
    return float(
        (2 * mu_o * mu_r + c4)
        * (2 * cov + c3)
        / ((mu_o**2 + mu_r**2 + c4) * (var_o + var_r + c3))
    )


def power_spectrum(data: np.ndarray):
    """Radially binned FFT power spectrum → (k_bin_centers, P(k), modes/bin).

    The data-specific post-hoc analysis of §III-E-4 (Nyx-style spectrum).
    Uses the unnormalized FFT, bins |F(k)|² by integer wavenumber magnitude
    up to the smallest axis Nyquist (at least 4 bins).
    """
    d = np.asarray(data, dtype=np.float64)
    f = np.fft.fftn(d)
    p = np.abs(f) ** 2
    grids = np.meshgrid(*[np.fft.fftfreq(n) * n for n in d.shape], indexing="ij")
    k = np.sqrt(sum(g**2 for g in grids))
    kmax = min(d.shape) // 2
    n_bins = max(4, kmax)
    edges = np.linspace(0.5, kmax + 0.5, n_bins + 1)
    which = np.digitize(k.ravel(), edges) - 1
    valid = (which >= 0) & (which < n_bins)
    counts = np.bincount(which[valid], minlength=n_bins)
    sums = np.bincount(which[valid], weights=p.ravel()[valid], minlength=n_bins)
    nonempty = counts > 0
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore"):
        pk = np.where(nonempty, sums / np.maximum(counts, 1), np.nan)
    return centers[nonempty], pk[nonempty], counts[nonempty]


def spectrum_rel_error(orig: np.ndarray, recon: np.ndarray) -> float:
    """Mean relative power-spectrum distortion over radial bins — the
    measured FFT quality-degradation metric compared against the model."""
    _, p0, _ = power_spectrum(orig)
    _, p1, _ = power_spectrum(recon)
    ok = p0 > 0
    return float(np.mean(np.abs(p1[ok] - p0[ok]) / p0[ok]))
