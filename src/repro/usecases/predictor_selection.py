"""Use-case 1 (§IV-A, §V-E-1): adaptive predictor selection.

The model produces a rate-distortion curve per predictor from one sampling
pass; the best-fit predictor for any bit-rate (or error bound) is read off
the curves, including the crossover bit-rate where the preferred predictor
switches (the paper finds Lorenzo → linear interpolation below ~1.89 bits on
RTM). The trial-and-error baseline compresses at every candidate error bound
instead.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..compressor import pipeline
from ..core.model import RatioQualityModel

__all__ = ["rd_curves", "select_predictor", "crossover_bitrate", "Selection"]


def rd_curves(
    data: np.ndarray,
    predictors: tuple[str, ...],
    ebs_rel: tuple[float, ...],
    measured: bool = False,
    seed: int = 0,
) -> dict[str, dict]:
    """Rate-distortion curves per predictor.

    → ``{predictor: {"eb_rel", "bitrate", "psnr", "seconds"}}``; estimated
    from the model by default, or measured via real compression
    (``measured=True`` — the trial-and-error path, for validation/timing).
    """
    d = np.asarray(data, dtype=np.float64)
    vrange = float(d.max() - d.min())
    out: dict[str, dict] = {}
    for p in predictors:
        t0 = time.perf_counter()
        brs, psnrs = [], []
        if measured:
            for ebr in ebs_rel:
                m = pipeline.measure(data, p, ebr * vrange, with_ssim=False)
                brs.append(m["bitrate_ll"])
                psnrs.append(m["psnr"])
        else:
            model = RatioQualityModel(data, p, seed=seed)
            for ebr in ebs_rel:
                est = model.estimate(model.abs_bound(ebr))
                brs.append(est["bitrate_ll"])
                psnrs.append(est["psnr"])
        out[p] = {
            "eb_rel": list(ebs_rel),
            "bitrate": brs,
            "psnr": psnrs,
            "seconds": time.perf_counter() - t0,
        }
    return out


@dataclass(frozen=True)
class Selection:
    predictor: str
    eb_rel: float
    bitrate: float
    psnr: float


def select_predictor(curves: dict[str, dict], target_bitrate: float) -> Selection:
    """Best predictor at a target bit-rate: interpolate each curve's
    PSNR(bitrate) and pick the highest (the paper's 'best-fit predictor for
    a given target ratio', considering quality — not just ratio)."""
    best = None
    for p, c in curves.items():
        br = np.asarray(c["bitrate"], dtype=np.float64)
        ps = np.asarray(c["psnr"], dtype=np.float64)
        ebs = np.asarray(c["eb_rel"], dtype=np.float64)
        order = np.argsort(br)
        psnr_at = float(np.interp(target_bitrate, br[order], ps[order]))
        eb_at = float(np.interp(target_bitrate, br[order], ebs[order]))
        if best is None or psnr_at > best.psnr:
            best = Selection(p, eb_at, target_bitrate, psnr_at)
    assert best is not None, "no curves given"
    return best


def crossover_bitrate(
    curves: dict[str, dict],
    p_low: str,
    p_high: str,
    margin_db: float = 0.0,
) -> float | None:
    """Bit-rate below which ``p_low`` beats ``p_high`` by ≥ ``margin_db``
    (PSNR at equal rate).

    Scans a 512-point log-spaced bit-rate grid over the curves' common range and
    returns the highest rate where the margined preference flips; None if
    one predictor dominates everywhere. A small positive ``margin_db``
    makes the boundary well-conditioned when the curves run near-parallel
    at high rates (estimation noise then produces spurious zero-crossings).
    """
    def interp(p):
        br = np.asarray(curves[p]["bitrate"], dtype=np.float64)
        ps = np.asarray(curves[p]["psnr"], dtype=np.float64)
        order = np.argsort(br)
        return br[order], ps[order]

    b1, q1 = interp(p_low)
    b2, q2 = interp(p_high)
    lo = max(b1.min(), b2.min())
    hi = min(b1.max(), b2.max())
    if not (hi > lo > 0):
        return None
    grid = np.geomspace(lo, hi, 512)
    diff = np.interp(grid, b1, q1) - np.interp(grid, b2, q2) - margin_db
    # scan upward from the low-rate end: the boundary is the FIRST point
    # where p_low's (margined) advantage is lost — later re-crossings in the
    # near-parallel high-rate tail are estimation noise, not a preference
    if diff[0] <= 0:
        return None
    below = np.flatnonzero(diff <= 0)
    if len(below) == 0:
        return None
    i = int(below[0]) - 1
    x0, x1, d0, d1 = grid[i], grid[i + 1], diff[i], diff[i + 1]
    return float(x0 + (x1 - x0) * (0.0 - d0) / (d1 - d0))
