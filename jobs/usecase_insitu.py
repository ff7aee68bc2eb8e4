"""Table E4 (≙ Figs. 12–13 / §V-E-3): in-situ per-timestep error-bound
optimization on the RTM snapshot sequence.

Part A (Fig. 13): per-snapshot bounds at a 56 dB PSNR floor vs the
traditional single worst-case bound — both measured after real compression.
Part B (Fig. 12): Lagrangian rate allocation across snapshots at the
uniform-bound budget — extra compression ratio at equal stacked quality and
extra quality at equal ratio (paper: +13% ratio / +31% quality).

Run: ``python jobs/usecase_insitu.py``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.ratio_model import log_bisect
from repro.sci_data import rtm_snapshot
from repro.usecases.insitu import (
    budgeted_allocation,
    model_curves,
    per_snapshot_models,
    quality_targeted,
    uniform_baseline,
)

from _common import emit

SHAPE = (32, 96, 96)
TIMESTEPS = tuple(range(200, 3401, 200))
TARGET_PSNR = 56.0


def main() -> dict[str, pd.DataFrame]:
    snaps = {t: rtm_snapshot(t, SHAPE) for t in TIMESTEPS}
    models = per_snapshot_models(snaps, "lorenzo", seed=0)

    # -- Part A: Fig. 13 ------------------------------------------------
    qt = quality_targeted(snaps, models, target_psnr_db=TARGET_PSNR)
    per_snap = pd.DataFrame(qt["rows"])
    emit("tableE4_quality_targeted", per_snap)
    a_summary = pd.DataFrame(
        [
            dict(
                target_psnr=TARGET_PSNR,
                ours_mean_bitrate=qt["ours_mean_bitrate"],
                trad_mean_bitrate=qt["trad_mean_bitrate"],
                bitrate_reduction_pct=100 * qt["bitrate_reduction"],
                ours_min_psnr=qt["ours_min_psnr"],
            )
        ]
    )
    emit("tableE4_summary_figA", a_summary)

    # -- Part B: Fig. 12 ------------------------------------------------
    # operate in the high-ratio regime (where per-snapshot rate curves
    # differ in shape — quiescent early snapshots saturate, late ones
    # don't — which is where fine-grained allocation has headroom)
    rmax = max(m.value_range for m in models.values())
    eb_uni = 3e-2 * rmax
    grid = np.unique(np.append(np.geomspace(1e-5 * rmax, 0.3 * rmax, 161), eb_uni))
    # the curves are built once; the baseline, the allocation and every
    # step of the equal-quality search below read them
    curves = model_curves(models, grid)
    uni = uniform_baseline(curves, eb_abs=eb_uni)
    opt = budgeted_allocation(curves, total_bitrate=uni["mean_bitrate"])
    # extra ratio at equal quality: shrink the budget until the optimized
    # allocation matches the uniform baseline's stacked distortion
    _, hi = log_bisect(
        lambda b: budgeted_allocation(curves, total_bitrate=b)["sum_sigma2"] > uni["sum_sigma2"],
        0.2 * uni["mean_bitrate"],
        uni["mean_bitrate"],
    )
    equal_quality = budgeted_allocation(curves, total_bitrate=hi)
    b_summary = pd.DataFrame(
        [
            dict(
                uniform_bitrate=uni["mean_bitrate"],
                uniform_sum_sigma2=uni["sum_sigma2"],
                opt_sum_sigma2_same_rate=opt["sum_sigma2"],
                quality_gain_pct=100 * (1 - opt["sum_sigma2"] / uni["sum_sigma2"]),
                # stacked-image quality gain in dB at equal rate
                quality_gain_db=10 * np.log10(uni["sum_sigma2"] / opt["sum_sigma2"]),
                eq_quality_bitrate=equal_quality["mean_bitrate"],
                extra_ratio_pct=100
                * (uni["mean_bitrate"] / equal_quality["mean_bitrate"] - 1),
            )
        ]
    )
    emit("tableE4_summary_figB", b_summary)
    ebs = pd.DataFrame(
        [
            dict(t=t, eb_abs=opt["eb_abs"][t], eb_rel=opt["eb_abs"][t] / models[t].value_range)
            for t in TIMESTEPS
        ]
    )
    emit("tableE4_optimized_ebs", ebs)
    return {"figA": a_summary, "figB": b_summary}


if __name__ == "__main__":
    main()
