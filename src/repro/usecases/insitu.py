"""Use-case 3 (§IV-C, §V-E-3): in-situ fine-grained error-bound tuning
across data partitions (RTM timesteps).

Two optimizations from the paper:

* **Quality-targeted** (Fig. 13): per-snapshot error bound meeting a PSNR
  floor (56 dB), vs the *traditional* static choice — one worst-case error
  bound for all snapshots (Liebig's barrel: the hardest snapshot dictates
  everyone's bound, wasting ratio on the easy ones).
* **Budgeted quality/ratio trade** (Fig. 12): per-snapshot error bounds that
  minimize the stacked image's error variance subject to a total bit
  budget — Lagrangian rate allocation over the per-snapshot model curves,
  built once (``model_curves``) and read by every decision (infeasible
  with trial-and-error: the configuration space is exponential in the
  number of partitions). Reported as extra ratio at equal quality /
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
    "model_curves",
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
        ours, trad = pipeline.trials(d, models[t].predictor, [ebs[t], worst_abs], with_ssim=False)
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


def model_curves(
    models: dict[int, RatioQualityModel], ebs_abs: np.ndarray
) -> dict[int, dict[str, np.ndarray]]:
    """Per-snapshot model curves (``RatioQualityModel.curve``) over one
    shared absolute error-bound grid, built once for every decision below.
    ``sigma_e2`` is absolute: error variances of snapshots add directly in
    the stacked image (§V-E-3)."""
    return {t: m.curve(ebs_abs) for t, m in models.items()}


def budgeted_allocation(curves: dict[int, dict], total_bitrate: float) -> dict:
    """Fig. 12: choose each snapshot's eb from the curves' shared grid
    (``model_curves``) to minimize the stacked image's summed error
    variance subject to mean bit-rate ≤ ``total_bitrate``.

    Lagrangian sweep over the curves: for multiplier λ each snapshot
    independently picks the candidate minimizing ``σ² + λ·B``; λ is
    bisected (``log_bisect``) until the budget binds. The best *uniform*
    bound meeting the budget is also evaluated and the allocation never
    returns worse (discrete-grid Lagrangian points can otherwise land off
    the hull). Raises ``ValueError`` for a budget below the mean of the
    curves' lowest bit-rates, which no choice of bounds meets.
    """
    floor = float(np.mean([c["bitrate_ll"].min() for c in curves.values()]))
    if total_bitrate < floor:
        raise ValueError(f"budget {total_bitrate} bits/pt is below the curves' floor {floor}")
    # normalize λ scale: σ² spans many orders of magnitude across the grid
    smax = max(c["sigma_e2"].max() for c in curves.values())

    def allocate(lam: float) -> dict:
        pick = {t: int(np.argmin(c["sigma_e2"] + lam * c["bitrate_ll"])) for t, c in curves.items()}
        return {
            "eb_abs": {t: float(curves[t]["eb_abs"][p]) for t, p in pick.items()},
            "mean_bitrate": float(np.mean([curves[t]["bitrate_ll"][p] for t, p in pick.items()])),
            "sum_sigma2": float(np.sum([curves[t]["sigma_e2"][p] for t, p in pick.items()])),
        }

    over = lambda lam: allocate(lam)["mean_bitrate"] > total_bitrate  # noqa: E731
    best = allocate(log_bisect(over, 1e-18 * smax, 1e6 * smax)[1])
    for eb in next(iter(curves.values()))["eb_abs"]:
        uni = uniform_baseline(curves, eb)
        if uni["mean_bitrate"] <= total_bitrate and uni["sum_sigma2"] < best["sum_sigma2"]:
            best = {**uni, "eb_abs": dict.fromkeys(curves, uni["eb_abs"])}
    return best


def uniform_baseline(curves: dict[int, dict], eb_abs: float) -> dict:
    """Same absolute error bound for every snapshot (the paper's baseline):
    the curves' column at ``eb_abs``. Raises ``ValueError`` when ``eb_abs``
    is not a point of the curves' shared grid."""
    grid = next(iter(curves.values()))["eb_abs"]
    hit = np.flatnonzero(grid == eb_abs)
    if len(hit) == 0:
        raise ValueError(f"error bound {eb_abs} is not on the curves' grid")
    j = int(hit[0])
    return {
        "mean_bitrate": float(np.mean([c["bitrate_ll"][j] for c in curves.values()])),
        "sum_sigma2": float(np.sum([c["sigma_e2"][j] for c in curves.values()])),
        "eb_abs": float(grid[j]),
    }
