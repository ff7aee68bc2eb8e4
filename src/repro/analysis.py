"""Post-hoc analysis metrics (§III-E): PSNR, SSIM, FFT power spectrum.

These are the *measured* counterparts of the quality model in
``repro.core.quality_model``. SSIM is the global-statistics form the paper's
derivation (Eq. 16) starts from, with the standard constants
``C3=(K2·range)²`` (variance term) and ``C4=(K1·range)²`` (mean term).

``reference(orig).judge(recon)`` is the one judgement of a reconstruction:
every trial (Table II's measurements, the dump's trial-and-error loop and
rank rows) takes its MSE, max error, PSNR and SSIM from it, the trials of
one field from one reference (``pipeline.trials``), and ``judge`` is the
one-reconstruction case; ``psnr_db`` is the one measured Eq. 14
(the dump recombines its snapshot PSNR with it). ``psnr`` and
``ssim_global`` read one key of ``judge``.

Both metrics scale the error by the value range, so a constant field
(range 0) gives them nothing to measure it against: it reads PSNR = inf and
SSIM = 1, as an exact reconstruction does, in the model as well.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "judge", "reference", "psnr", "psnr_db", "ssim_global", "power_spectrum", "spectrum_rel_error",
    "value_range",
]

_K1, _K2 = 0.01, 0.03


def value_range(data: np.ndarray) -> float:
    """max − min in float64, without a float64 copy of ``data``: each
    extreme converts exactly, so it equals the range of the copy."""
    d = np.asarray(data)
    return float(d.max()) - float(d.min())


def psnr_db(value_range: float, mse: float) -> float:
    """Measured PSNR in dB (Eq. 14) of a mean squared error against a value
    range (the peak); inf with no error or no range (a constant field)."""
    if mse == 0 or value_range == 0:
        return float("inf")
    return float(10.0 * np.log10(value_range * value_range / mse))


class _Reference:
    """One original field prepared once for judging its reconstructions:
    its float64 view and value range and, for SSIM, its mean, centred
    field and variance."""

    def __init__(self, orig: np.ndarray, with_ssim: bool) -> None:
        self.orig = np.asarray(orig, dtype=np.float64)
        self.value_range = value_range(self.orig)
        self.with_ssim = with_ssim
        if with_ssim:
            o = self.orig.ravel()
            self.mean = o.mean()
            self.centred = o - self.mean
            self.var = o.var()

    def judge(self, recon: np.ndarray) -> dict:
        """The measured quality of ``recon`` against the field: ``mse``,
        ``max_err`` (max point-wise absolute error), ``psnr`` (``psnr_db``)
        and ``ssim`` (``ssim_global``'s Eq. 16, NaN unless ``with_ssim``),
        from one error field, whose buffer SSIM's covariance reuses."""
        r = np.asarray(recon, dtype=np.float64)
        err = np.subtract(self.orig, r)
        max_err = float(abs(max(err.max(), -err.min())))  # abs: +0.0 for -0.0 errors
        mse = float(np.mean(np.square(err, out=err)))
        rng = self.value_range
        ssim = float("nan")
        if self.with_ssim:
            ssim = 1.0  # Eq. 16 is 0/0 for an exact reconstruction or no range
            if rng != 0 and max_err != 0:
                r = r.ravel()
                c4 = (_K1 * rng) ** 2  # mean (luminance) constant
                c3 = (_K2 * rng) ** 2  # variance (contrast/structure) constant
                mu_o, mu_r = self.mean, r.mean()
                rc = r - mu_r
                cov = float(np.mean(np.multiply(self.centred, rc, out=err.ravel())))
                var_r = np.mean(np.square(rc, out=rc))  # r.var(), bit for bit
                ssim = float(
                    (2 * mu_o * mu_r + c4)
                    * (2 * cov + c3)
                    / ((mu_o**2 + mu_r**2 + c4) * (self.var + var_r + c3))
                )
        return {"mse": mse, "max_err": max_err, "psnr": psnr_db(rng, mse), "ssim": ssim}


def reference(orig: np.ndarray, with_ssim: bool = False) -> _Reference:
    """``orig`` prepared once for judging any number of its reconstructions
    with ``.judge(recon)``: the trials of one field share one reference."""
    return _Reference(orig, with_ssim)


def judge(orig: np.ndarray, recon: np.ndarray, with_ssim: bool = False) -> dict:
    """The measured quality of ``recon`` against ``orig``:
    ``reference(orig, with_ssim).judge(recon)``."""
    return reference(orig, with_ssim).judge(recon)


def psnr(orig: np.ndarray, recon: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (Eq. 14), peak = value range; inf for
    an exact reconstruction or a constant field."""
    return judge(orig, recon)["psnr"]


def ssim_global(orig: np.ndarray, recon: np.ndarray) -> float:
    """Global-statistics SSIM (Eq. 16) with standard K1/K2 constants; 1.0 for
    an exact reconstruction or a constant field, where Eq. 16 is 0/0."""
    return judge(orig, recon, with_ssim=True)["ssim"]


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
