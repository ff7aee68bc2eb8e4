"""Use-case 1 (§IV-A, §V-E-1): adaptive predictor selection.

The model produces a rate-distortion curve per predictor from one sampling
pass; the best-fit predictor for any bit-rate (or error bound) is read off
the curves, including the crossover bit-rate where the preferred predictor
switches (the paper finds Lorenzo → linear interpolation below ~1.89 bits on
RTM). The trial-and-error baseline compresses at every candidate error bound
instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import value_range
from ..compressor import pipeline
from ..core.model import RatioQualityModel

__all__ = ["rd_curves", "curve_at", "select_predictor", "crossover_bitrate", "Selection"]


def rd_curves(
    data: np.ndarray,
    predictors: tuple[str, ...],
    ebs_rel: tuple[float, ...],
    measured: bool = False,
    seed: int = 0,
) -> dict[str, dict]:
    """Rate-distortion curves per predictor.

    → ``{predictor: {"eb_rel", "bitrate", "psnr"}}``; estimated from the
    model (one ``RatioQualityModel.curve``) by default, or measured via real
    compression (``measured=True`` — the trial-and-error path, for
    validation/timing).
    """
    vrange = value_range(data)
    out: dict[str, dict] = {}
    for p in predictors:
        if measured:
            ms = list(pipeline.trials(data, p, [ebr * vrange for ebr in ebs_rel], with_ssim=False))
            c = {k: [m[k] for m in ms] for k in ("bitrate_ll", "psnr")}
        else:
            model = RatioQualityModel(data, p, seed=seed)
            c = model.curve(model.abs_bound(np.asarray(ebs_rel)))
        out[p] = {"eb_rel": list(ebs_rel), "bitrate": c["bitrate_ll"], "psnr": c["psnr"]}
    return out


@dataclass(frozen=True)
class Selection:
    predictor: str
    eb_rel: float
    bitrate: float
    psnr: float


def curve_at(curve: dict, key: str, bitrate):
    """One rate-distortion curve's ``key`` column (``"psnr"``, ``"eb_rel"``)
    linearly interpolated at ``bitrate`` (a scalar or an array), clamped to
    the curve's end points."""
    br = np.asarray(curve["bitrate"], dtype=np.float64)
    order = np.argsort(br)
    return np.interp(bitrate, br[order], np.asarray(curve[key], dtype=np.float64)[order])


def select_predictor(curves: dict[str, dict], target_bitrate: float) -> Selection:
    """Best predictor at a target bit-rate: interpolate each curve's
    PSNR(bitrate) and pick the highest (the paper's 'best-fit predictor for
    a given target ratio', considering quality — not just ratio)."""
    best = None
    for p, c in curves.items():
        psnr_at = float(curve_at(c, "psnr", target_bitrate))
        eb_at = float(curve_at(c, "eb_rel", target_bitrate))
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
    c1, c2 = curves[p_low], curves[p_high]
    lo = max(min(c1["bitrate"]), min(c2["bitrate"]))
    hi = min(max(c1["bitrate"]), max(c2["bitrate"]))
    if not (hi > lo > 0):
        return None
    grid = np.geomspace(lo, hi, 512)
    diff = curve_at(c1, "psnr", grid) - curve_at(c2, "psnr", grid) - margin_db
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
