"""`RatioQualityModel` — the paper's model as a single per-chunk object.

Construction performs the **one-time ~1% sampling** (the only pass over the
data besides an exact min/max); every subsequent estimate — for any error
bound or target bit-rate — costs only a histogram over the sample. This is
what replaces the trial-and-error compress-measure loop (§V-D).

The code histogram always carries the phase-smear correction
(``core.histogram``) and the error variance is the predictor-aware
Eq. 10/11 form; the uniform-only prior-work baseline is kept only for the
FFT estimate, where Fig. 8 plots it (``estimate_fft``).
"""
from __future__ import annotations

import numpy as np

from ..compressor.huffman import codebook_bytes
from ..compressor.pipeline import HEADER_BYTES
from ..compressor.predictors import get_predictor
from ..compressor.quantizer import check_bound, check_field
from . import histogram, quality_model, ratio_model
from .sampling import sample_values

__all__ = ["RatioQualityModel"]


class RatioQualityModel:
    """Ratio-quality estimates for one data chunk and one predictor. Raises
    ``ValueError`` for an empty or non-finite chunk, as ``compress`` does."""

    def __init__(
        self,
        data: np.ndarray,
        predictor: str = "lorenzo",
        sample_rate: float = 0.01,
        seed: int = 0,
    ):
        check_field(data)
        pred = get_predictor(predictor)
        self.predictor = predictor
        self.shape = tuple(data.shape)
        self.ndim = len(self.shape)
        self.n_points = int(np.prod(self.shape))
        self.coded_count = pred.coded_count(self.shape)
        self.side_bytes = pred.side_bytes(self.shape)
        self.alpha = histogram.phase_alpha(predictor, self.ndim)
        s = pred.sample_errors(data, rate=sample_rate, seed=seed)
        self.errors, self.weights = s.errors, s.weights
        self.group_ids = s.group_ids
        d = np.asarray(data, dtype=np.float64)
        self.vmin, self.vmax = float(d.min()), float(d.max())
        self.value_range = self.vmax - self.vmin
        self.values_sample = sample_values(data, rate=sample_rate, seed=seed + 1)
        self.sigma_d2 = float(self.values_sample.var())

    # ------------------------------------------------------------------
    def abs_bound(self, eb_rel: float) -> float:
        """Value-range-relative → absolute error bound."""
        return eb_rel * self.value_range

    def _sigma_e2(self, eb_abs: float, uniform_only: bool = False) -> float:
        """Predictor-aware Eq. 10/11 error-distribution variance."""
        if uniform_only:
            return quality_model.sigma_e2_uniform(eb_abs)
        if self.predictor == "lorenzo":
            # lattice quantizer: every point's error is its phase residual
            return quality_model.sigma_e2_lattice(self.values_sample, eb_abs)
        if self.predictor == "interp" and self.group_ids is not None:
            return quality_model.sigma_e2_interp(
                self.errors, self.weights, self.group_ids, eb_abs
            )
        return quality_model.sigma_e2(self.errors, self.weights, eb_abs)

    def _overhead_bits(self, n_symbols: int) -> float:
        return 8.0 * (codebook_bytes(n_symbols) + self.side_bytes + HEADER_BYTES)

    # ------------------------------------------------------------------
    def estimate(self, eb_abs: float) -> dict:
        """All ratio/quality estimates for one absolute error bound. Raises
        ``ValueError`` for ``eb_abs <= 0``, as ``compress`` does."""
        check_bound(eb_abs)
        syms, cnts = histogram.phase_smear(self.errors, self.weights, eb_abs, self.alpha)
        p0 = histogram.p0_of(syms, cnts)
        b_code = ratio_model.huffman_bitrate(cnts)
        b_code_ll = ratio_model.lossless_bitrate(b_code, p0)
        oh = self._overhead_bits(len(syms))
        bitrate_huff = (b_code * self.coded_count + oh) / self.n_points
        bitrate_ll = (b_code_ll * self.coded_count + oh) / self.n_points
        s2 = self._sigma_e2(eb_abs)
        return {
            "eb_abs": float(eb_abs),
            "p0": p0,
            "bitrate_huff": bitrate_huff,
            "bitrate_ll": bitrate_ll,
            "sigma_e2": s2,
            "psnr": quality_model.psnr_est(self.value_range, s2),
            "ssim": quality_model.ssim_est(self.sigma_d2, s2, self.value_range),
        }

    # ------------------------------------------------------------------
    def error_bound_for_bitrate(self, target_bits_per_point: float) -> float:
        """Invert the model: error bound whose estimated Huffman + lossless
        bit-rate meets a target (fix-rate mode, use-case 2). Pure model
        evaluations — no compression."""

        def est(eb):
            return self.estimate(eb)["bitrate_ll"]

        lo = max(self.value_range * 1e-8, np.finfo(np.float64).tiny)
        hi = max(self.value_range, lo * 10)
        return ratio_model.invert_bitrate(est, target_bits_per_point, lo, hi)

    def _largest_eb(self, ok) -> float:
        """Largest error bound for which the monotone predicate ``ok`` still
        holds: log-space bisection on [range·1e-9, range] to a 0.1% bracket.
        Pure model evaluations on the sample — no compression. Lorenzo's
        lattice variance is not monotone at that scale, so there the result
        is a bound where ``ok`` flips, not always the largest one."""
        lo = max(self.value_range * 1e-9, np.finfo(np.float64).tiny)
        hi = max(self.value_range, lo * 10)
        if ok(hi):
            return hi
        if not ok(lo):
            return lo
        for _ in range(60):
            mid = float(np.sqrt(lo * hi))
            if ok(mid):
                lo = mid
            else:
                hi = mid
            if hi / lo < 1.001:
                break
        return lo

    def error_bound_for_psnr(self, target_psnr_db: float) -> float:
        """Invert the quality model: largest error bound whose estimated
        PSNR still meets ``target_psnr_db`` (in-situ use-case 3)."""
        return self._largest_eb(
            lambda eb: quality_model.psnr_est(self.value_range, self._sigma_e2(eb))
            >= target_psnr_db
        )

    def error_bound_for_mse(self, target_mse: float) -> float:
        """Largest error bound whose estimated error variance stays at or
        below ``target_mse``. Used when the quality target is expressed
        against a *global* peak (e.g. a snapshot-level PSNR floor while this
        model only sees one rank's partition): the caller converts the
        global PSNR to an MSE budget, which is range-free."""
        return self._largest_eb(lambda eb: self._sigma_e2(eb) <= target_mse)

    def estimate_fft(self, eb_abs: float, pk: np.ndarray, modes_per_bin: np.ndarray, uniform_only: bool = False) -> float:
        """Estimated FFT power-spectrum distortion (§III-E-4) given the
        original data's radial spectrum (one-time analysis setup).
        ``uniform_only=True`` gives the prior-work baseline that models the
        error distribution as purely uniform (Eq. 10 without Eq. 11 — the
        dashed line of Fig. 8). Raises ``ValueError`` for ``eb_abs <= 0``,
        as ``compress`` does."""
        check_bound(eb_abs)
        s2 = self._sigma_e2(eb_abs, uniform_only)
        return quality_model.fft_rel_error_est(s2, self.n_points, pk, modes_per_bin)
