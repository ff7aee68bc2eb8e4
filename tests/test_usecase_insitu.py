"""Use-case 3 tests: in-situ per-partition error-bound tuning (Figs. 12/13)."""
import numpy as np
import pytest

from repro.sci_data import rtm_snapshot
from repro.usecases.insitu import (
    budgeted_allocation,
    per_snapshot_models,
    quality_targeted,
    uniform_baseline,
)

SHAPE = (10, 24, 24)
TS = (1000, 1800, 2600, 3400)


@pytest.fixture(scope="module")
def snaps():
    return {t: rtm_snapshot(t, SHAPE) for t in TS}


@pytest.fixture(scope="module")
def models(snaps):
    return per_snapshot_models(snaps, "lorenzo", seed=0)


def test_models_built_per_snapshot(models):
    assert set(models) == set(TS)


def test_quality_targeted_meets_floor(snaps, models):
    out = quality_targeted(snaps, models, target_psnr_db=50.0)
    # every snapshot's measured PSNR respects the floor, up to 1 dB of
    # model-estimation error
    assert out["ours_min_psnr"] >= 50.0 - 1.0
    assert len(out["rows"]) == len(TS)


def test_quality_targeted_beats_traditional(snaps, models):
    """The Liebig's-barrel effect: per-snapshot bounds use fewer bits than
    one worst-case bound, at the same quality floor."""
    out = quality_targeted(snaps, models, target_psnr_db=50.0)
    assert out["ours_mean_bitrate"] <= out["trad_mean_bitrate"] * 1.01
    assert out["bitrate_reduction"] >= -0.01
    # the traditional method over-delivers quality on easy snapshots
    trad_psnrs = [r["trad_psnr"] for r in out["rows"]]
    assert max(trad_psnrs) > 50.0


def test_traditional_bound_is_global(snaps, models):
    out = quality_targeted(snaps, models, target_psnr_db=50.0)
    trad_brs = {r["t"]: r["trad_bitrate"] for r in out["rows"]}
    ours_brs = {r["t"]: r["ours_bitrate"] for r in out["rows"]}
    # at least one snapshot is cheaper under per-snapshot tuning
    assert any(ours_brs[t] < trad_brs[t] - 1e-6 for t in TS) or all(
        abs(ours_brs[t] - trad_brs[t]) < 1e-6 for t in TS
    )


def _mid_eb(models):
    return 3e-3 * max(m.value_range for m in models.values())


def _grid(models):
    """41 shared absolute bounds from 1e-5 to 0.3 of the largest range."""
    rmax = max(m.value_range for m in models.values())
    return np.geomspace(1e-5 * rmax, 0.3 * rmax, 41)


def test_budgeted_allocation_meets_budget(models):
    alloc = budgeted_allocation(models, total_bitrate=2.0, ebs_abs=_grid(models))
    assert alloc["mean_bitrate"] <= 2.0 * 1.02
    assert set(alloc["eb_abs"]) == set(TS)
    assert all(e > 0 for e in alloc["eb_abs"].values())


def test_budgeted_allocation_beats_uniform(models):
    """Fig. 12's claim: fine-grained bounds dominate a uniform bound at the
    same total rate (equal-or-better stacked quality). The candidate grid
    must contain the baseline's bound for the dominance guarantee to be
    exact (the jobs do the same)."""
    eb = _mid_eb(models)
    grid = np.unique(np.append(_grid(models), eb))
    uni = uniform_baseline(models, eb_abs=eb)
    alloc = budgeted_allocation(models, total_bitrate=uni["mean_bitrate"], ebs_abs=grid)
    assert alloc["sum_sigma2"] <= uni["sum_sigma2"] * 1.001


def test_budgeted_allocation_rate_quality_tradeoff(models):
    rich = budgeted_allocation(models, total_bitrate=4.0, ebs_abs=_grid(models))
    poor = budgeted_allocation(models, total_bitrate=1.0, ebs_abs=_grid(models))
    assert rich["sum_sigma2"] <= poor["sum_sigma2"] * 1.01
    assert rich["mean_bitrate"] >= poor["mean_bitrate"]


def test_uniform_baseline_fields(models):
    uni = uniform_baseline(models, eb_abs=_mid_eb(models))
    assert uni["mean_bitrate"] > 0 and uni["sum_sigma2"] > 0
