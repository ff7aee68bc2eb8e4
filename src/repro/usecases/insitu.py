"""Use-case 3 (§IV-C, §V-E-3): in-situ fine-grained error-bound tuning
across data partitions (RTM timesteps).

Two optimizations from the paper:

* **Quality-targeted** (Fig. 13): per-snapshot error bound meeting a PSNR
  floor (56 dB), vs the *traditional* static choice — one worst-case error
  bound for all snapshots (Liebig's barrel: the hardest snapshot dictates
  everyone's bound, wasting ratio on the easy ones).
* **Budgeted quality/ratio trade** (Fig. 12): per-snapshot error bounds that
  minimize the stacked image's error variance subject to a total bit
  budget — Lagrangian rate allocation over the per-snapshot model curves
  (infeasible with trial-and-error: the configuration space is exponential
  in the number of partitions). Reported as extra ratio at equal quality /
  extra quality at equal ratio vs the uniform-error-bound baseline.
"""
from __future__ import annotations

import numpy as np

from ..compressor import pipeline
from ..core.model import RatioQualityModel
from ..core.quality_model import MSE_HEADROOM, mse_budget
from ..core.ratio_model import log_bisect

__all__ = [
    "per_snapshot_models",
    "quality_targeted",
    "budgeted_allocation",
    "uniform_baseline",
]


def per_snapshot_models(
    snapshots: dict[int, np.ndarray],
    predictor: str,
    seed: int,
) -> dict[int, RatioQualityModel]:
    return {
        t: RatioQualityModel(d, predictor, seed=seed + t)
        for t, d in snapshots.items()
    }


def quality_targeted(
    snapshots: dict[int, np.ndarray],
    models: dict[int, RatioQualityModel],
    target_psnr_db: float,
) -> dict:
    """Fig. 13: ours (per-snapshot eb at the PSNR floor) vs traditional
    (single worst-case eb — the minimum of the per-snapshot bounds, which is
    what an offline study that must protect every snapshot ends up with).
    Both are then *actually compressed and measured*. The model aims at
    ``MSE_HEADROOM`` of the floor's MSE budget, the dump's quality guard."""
    ebs = {
        t: m.error_bound_for_mse(MSE_HEADROOM * mse_budget(m.value_range, target_psnr_db))
        for t, m in models.items()
    }
    # the traditional method picks ONE absolute bound for all snapshots
    # (the paper's offline studies use shared ABS bounds); it must hold for
    # the hardest snapshot — the one with the smallest admissible bound
    worst_abs = min(ebs.values())
    rows = []
    for t, d in snapshots.items():
        ours = pipeline.measure(d, models[t].predictor, ebs[t], with_ssim=False)
        trad = pipeline.measure(d, models[t].predictor, worst_abs, with_ssim=False)
        rows.append(
            {
                "t": t,
                "ours_bitrate": ours["bitrate_ll"],
                "ours_psnr": ours["psnr"],
                "trad_bitrate": trad["bitrate_ll"],
                "trad_psnr": trad["psnr"],
            }
        )
    mean = lambda k: float(np.mean([r[k] for r in rows]))  # noqa: E731
    return {
        "rows": rows,
        "target_psnr": target_psnr_db,
        "ours_mean_bitrate": mean("ours_bitrate"),
        "trad_mean_bitrate": mean("trad_bitrate"),
        "bitrate_reduction": 1.0 - mean("ours_bitrate") / mean("trad_bitrate"),
        "ours_min_psnr": float(min(r["ours_psnr"] for r in rows)),
    }


def _curves(models: dict[int, RatioQualityModel], ebs_abs: np.ndarray):
    """Per-snapshot model curves over a shared ABS error-bound grid:
    (bitrate, σ²) per candidate. σ² is absolute — error variances of
    snapshots add directly in the stacked image (§V-E-3)."""
    out = {}
    for t, m in models.items():
        est = [m.estimate(e) for e in ebs_abs]
        out[t] = {
            "eb_abs": np.asarray(ebs_abs, dtype=np.float64),
            "bitrate": np.array([e["bitrate_ll"] for e in est]),
            "sigma2": np.array([e["sigma_e2"] for e in est]),
        }
    return out


def budgeted_allocation(
    models: dict[int, RatioQualityModel],
    total_bitrate: float,
    ebs_abs: np.ndarray,
) -> dict:
    """Fig. 12: choose each snapshot's eb from the shared absolute grid
    ``ebs_abs`` to minimize the stacked image's summed error variance
    subject to mean bit-rate ≤ ``total_bitrate``.

    Lagrangian sweep over per-snapshot model curves: for multiplier λ each
    snapshot independently picks the candidate minimizing ``σ² + λ·B``; λ
    is bisected (``log_bisect``) until the budget binds. The best *uniform*
    bound meeting the budget is also evaluated and the allocation never
    returns worse (discrete-grid Lagrangian points can otherwise land off
    the hull).
    """
    ebs_abs = np.asarray(ebs_abs, dtype=np.float64)
    curves = _curves(models, ebs_abs)
    # normalize λ scale: σ² spans many orders of magnitude across the grid
    smax = max(c["sigma2"].max() for c in curves.values())

    def allocate(lam: float):
        pick = {t: int(np.argmin(c["sigma2"] + lam * c["bitrate"])) for t, c in curves.items()}
        mean_b = float(np.mean([curves[t]["bitrate"][p] for t, p in pick.items()]))
        sum_s = float(np.sum([curves[t]["sigma2"][p] for t, p in pick.items()]))
        return pick, mean_b, sum_s

    _, hi = log_bisect(lambda lam: allocate(lam)[1] > total_bitrate, 1e-18 * smax, 1e6 * smax)
    pick, mean_b, sum_s = allocate(hi)
    # uniform fallback: cheapest shared bound whose mean rate fits
    uni_best = None
    for j in range(len(ebs_abs)):
        mb = float(np.mean([c["bitrate"][j] for c in curves.values()]))
        if mb <= total_bitrate:
            ss = float(np.sum([c["sigma2"][j] for c in curves.values()]))
            if uni_best is None or ss < uni_best[1]:
                uni_best = (j, ss, mb)
    if uni_best is not None and uni_best[1] < sum_s:
        j, sum_s, mean_b = uni_best
        pick = {t: j for t in curves}
    return {
        "eb_abs": {t: float(curves[t]["eb_abs"][p]) for t, p in pick.items()},
        "mean_bitrate": mean_b,
        "sum_sigma2": sum_s,
    }


def uniform_baseline(
    models: dict[int, RatioQualityModel], eb_abs: float
) -> dict:
    """Same absolute error bound for every snapshot (the paper's baseline)."""
    bs, ss = [], []
    for t, m in models.items():
        e = m.estimate(eb_abs)
        bs.append(e["bitrate_ll"])
        ss.append(e["sigma_e2"])
    return {
        "mean_bitrate": float(np.mean(bs)),
        "sum_sigma2": float(np.sum(ss)),
        "eb_abs": eb_abs,
    }
