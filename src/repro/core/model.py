"""`RatioQualityModel` — the paper's model as a single per-chunk object.

Construction performs the **one-time ~1% sampling** (the only pass over the
data besides an exact min/max); every subsequent estimate — for any error
bound or target bit-rate — costs only a histogram over the sample. This is
what replaces the trial-and-error compress-measure loop (§V-D).

The code histogram always carries the phase-smear correction
(``core.histogram``) and the error variance is the predictor-aware
Eq. 10/11 form. The uniform-only prior-work baseline that Fig. 8 plots is
``quality_model.sigma_e2_uniform`` fed to the same FFT propagation
(``quality_model.fft_rel_error_est``); it needs no model.
"""
from __future__ import annotations

import numpy as np

from ..analysis import psnr_db, value_range
from ..compressor.pipeline import overhead_bytes
from ..compressor.predictors import get_predictor
from ..compressor.quantizer import check_bound, check_field, p0_of
from . import histogram, quality_model, ratio_model
from .sampling import sample_values

__all__ = ["RatioQualityModel"]


class RatioQualityModel:
    """Ratio-quality estimates for one data chunk and one predictor. Raises
    ``ValueError`` for an empty or non-finite chunk, as ``compress`` does."""

    def __init__(
        self,
        data: np.ndarray,
        predictor: str,
        sample_rate: float = 0.01,
        *,
        seed: int,
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
        self.errors, self.weights, self.group_ids = s.errors, s.weights, s.group_ids
        self.value_range = value_range(data)
        self.values_sample = sample_values(data, rate=sample_rate, seed=seed + 1)
        self.sigma_d2 = float(self.values_sample.var())

    # ------------------------------------------------------------------
    def abs_bound(self, eb_rel: float) -> float:
        """Value-range-relative → absolute error bound."""
        return eb_rel * self.value_range

    def _sigma_e2(self, eb_abs: float) -> float:
        """Predictor-aware Eq. 10/11 error-distribution variance."""
        if self.predictor == "lorenzo":
            # lattice quantizer: every point's error is its phase residual
            return quality_model.sigma_e2_lattice(self.values_sample, eb_abs)
        if self.predictor == "interp":
            return quality_model.sigma_e2_interp(
                self.errors, self.weights, self.group_ids, eb_abs
            )
        return quality_model.sigma_e2(self.errors, self.weights, eb_abs)

    # ------------------------------------------------------------------
    def estimate(self, eb_abs: float) -> dict:
        """All ratio/quality estimates for one absolute error bound. Raises
        ``ValueError`` unless ``0 < eb_abs < inf``, as ``compress`` does."""
        check_bound(eb_abs)
        syms, cnts = histogram.phase_smear(self.errors, self.weights, eb_abs, self.alpha)
        p0 = p0_of(syms, cnts)
        b_code = ratio_model.huffman_bitrate(cnts)
        b_code_ll = ratio_model.lossless_bitrate(b_code, p0)
        oh = 8.0 * overhead_bytes(len(syms), self.side_bytes)
        bitrate_huff = (b_code * self.coded_count + oh) / self.n_points
        bitrate_ll = (b_code_ll * self.coded_count + oh) / self.n_points
        s2 = self._sigma_e2(eb_abs)
        return {
            "eb_abs": float(eb_abs),
            "p0": p0,
            "bitrate_huff": bitrate_huff,
            "bitrate_ll": bitrate_ll,
            "sigma_e2": s2,
            "psnr": psnr_db(self.value_range, s2),
            "ssim": quality_model.ssim_est(self.sigma_d2, s2, self.value_range),
        }

    def curve(self, ebs_abs) -> dict[str, np.ndarray]:
        """The model's rate-distortion curve over the absolute bounds
        ``ebs_abs``: ``estimate`` at each bound, as one float64 array per
        estimate key, in bound order. The one sweep of the model over
        bounds; every use-case decision reads these arrays. Raises
        ``ValueError`` for an empty grid or a bound ``estimate`` rejects."""
        est = [self.estimate(e) for e in ebs_abs]
        if not est:
            raise ValueError("no error bounds to sweep")
        return {k: np.array([e[k] for e in est]) for k in est[0]}

    # ------------------------------------------------------------------
    def _search(self, holds) -> tuple[float, float]:
        """The one search of every inversion: ``holds(eb)`` is true at small
        bounds. On [range·1e-9, range] it returns ``(top, top)`` if ``holds``
        is true at the top, ``(bottom, bottom)`` if it is false at the
        bottom, and ``log_bisect``'s ``(lo, hi)`` otherwise. Raises
        ``ValueError`` for a constant field: with no value range there is
        no range of bounds to search (its PSNR is inf at every bound)."""
        lo, hi = self._bracket()
        if holds(hi):
            return hi, hi
        if not holds(lo):
            return lo, lo
        return ratio_model.log_bisect(holds, lo, hi)

    def _bracket(self) -> tuple[float, float]:
        """The inversions' search range [range·1e-9, range]."""
        if self.value_range == 0:
            raise ValueError("constant field: value range is 0, no error-bound range to search")
        lo = max(self.value_range * 1e-9, np.finfo(np.float64).tiny)
        return lo, max(self.value_range, lo * 10)

    def error_bound_for_bitrate(self, target_bits_per_point: float) -> float:
        """Invert the model: error bound whose estimated Huffman + lossless
        bit-rate meets a target (fix-rate mode, use-case 2), the upper end
        of ``_search``'s bracket. Pure model evaluations — no compression.
        Raises ``ValueError`` for a constant field or a NaN target, as every
        inversion does."""
        _check_target(target_bits_per_point)
        return self._search(lambda eb: self.estimate(eb)["bitrate_ll"] > target_bits_per_point)[1]

    def error_bound_for_psnr(self, target_psnr_db: float) -> float:
        """Invert the quality model: largest error bound whose estimated
        PSNR against this chunk's own value range still meets
        ``target_psnr_db``, i.e. the MSE inversion at its budget."""
        return self.error_bound_for_mse(
            quality_model.mse_budget(self.value_range, target_psnr_db)
        )

    def error_bound_for_mse(self, target_mse: float) -> float:
        """Largest error bound whose estimated error variance stays at or
        below ``target_mse``, searched below the first bound of a fixed grid
        (4 per decade over the range, 37 points) whose variance misses it:
        the lower end of ``_search``'s bracket, pure model evaluations on the
        sample — no compression. The cap is there because the estimated σ²
        is not monotone in the bound: Lorenzo's lattice variance can cross
        the budget more than once, and interp's dips near the top of the
        range, where every sample counts as quiet. A PSNR floor set against
        a *global* peak (a snapshot-level floor while this model sees one
        rank's partition) comes in through ``quality_model.mse_budget`` on
        the global range."""
        _check_target(target_mse)

        def ok(eb):
            # every σ² estimate is at most eb² (each error lies within ±eb),
            # so a bound with 2·eb² within the budget meets it unevaluated
            return 2.0 * eb * eb <= target_mse or self._sigma_e2(eb) <= target_mse

        cap = next((eb for eb in np.geomspace(*self._bracket(), 37) if not ok(eb)), np.inf)
        return self._search(lambda eb: eb < cap and ok(eb))[0]

    def estimate_fft(self, eb_abs: float, pk: np.ndarray, modes_per_bin: np.ndarray) -> float:
        """Estimated FFT power-spectrum distortion (§III-E-4) given the
        original data's radial spectrum (one-time analysis setup). Raises
        ``ValueError`` unless ``0 < eb_abs < inf``, as ``compress`` does."""
        check_bound(eb_abs)
        s2 = self._sigma_e2(eb_abs)
        return quality_model.fft_rel_error_est(s2, self.n_points, pk, modes_per_bin)


def _check_target(target: float) -> None:
    """Raise ``ValueError`` for a NaN inversion target, which no bound can
    meet or miss: every comparison with it is false."""
    if np.isnan(target):
        raise ValueError("inversion target is NaN")
