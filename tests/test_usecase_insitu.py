"""Use-case 3 tests: in-situ per-partition error-bound tuning (Figs. 12/13)."""
import numpy as np
import pytest

from repro.sci_data import rtm_snapshot
from repro.usecases.insitu import (
    budgeted_allocation,
    model_curves,
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


@pytest.fixture(scope="module")
def curves(models):
    return model_curves(models, _grid(models))


@pytest.fixture(scope="module")
def mid_curves(models):
    """The grid plus the baseline's bound: the candidate grid must contain
    it for the dominance guarantee to be exact (the jobs do the same)."""
    return model_curves(models, np.unique(np.append(_grid(models), _mid_eb(models))))


def test_model_curves_share_the_grid(models, curves):
    assert set(curves) == set(TS)
    for c in curves.values():
        assert np.array_equal(c["eb_abs"], _grid(models))


def test_budgeted_allocation_meets_budget(curves):
    alloc = budgeted_allocation(curves, total_bitrate=2.0)
    assert alloc["mean_bitrate"] <= 2.0 * 1.02
    assert set(alloc["eb_abs"]) == set(TS)
    assert all(e > 0 for e in alloc["eb_abs"].values())


def test_budgeted_allocation_beats_uniform(models, mid_curves):
    """Fig. 12's claim: fine-grained bounds dominate a uniform bound at the
    same total rate (equal-or-better stacked quality)."""
    uni = uniform_baseline(mid_curves, eb_abs=_mid_eb(models))
    alloc = budgeted_allocation(mid_curves, total_bitrate=uni["mean_bitrate"])
    assert alloc["sum_sigma2"] <= uni["sum_sigma2"] * 1.001


def test_budgeted_allocation_rate_quality_tradeoff(curves):
    """A richer budget buys no more error than the poorest one the curves
    allow (their floor: the mean of their lowest bit-rates)."""
    floor = float(np.mean([c["bitrate_ll"].min() for c in curves.values()]))
    assert floor < 4.0
    rich = budgeted_allocation(curves, total_bitrate=4.0)
    poor = budgeted_allocation(curves, total_bitrate=max(1.0, floor))
    assert rich["sum_sigma2"] <= poor["sum_sigma2"] * 1.01
    assert rich["mean_bitrate"] >= poor["mean_bitrate"]


def test_budgeted_allocation_rejects_infeasible_budget():
    """A budget below the mean of the curves' lowest bit-rates cannot be
    met by any choice of bounds: it raises instead of returning an
    allocation over budget."""
    snaps = {t: rtm_snapshot(t, (16, 48, 48)) for t in (1000, 2000, 3000)}
    models = per_snapshot_models(snaps, "lorenzo", seed=0)
    curves = model_curves(models, _grid(models))
    floor = float(np.mean([c["bitrate_ll"].min() for c in curves.values()]))
    assert floor > 0.2
    with pytest.raises(ValueError, match="below the curves' floor"):
        budgeted_allocation(curves, total_bitrate=0.2)
    assert budgeted_allocation(curves, total_bitrate=floor)["mean_bitrate"] <= floor


def test_uniform_baseline_fields(models, mid_curves):
    uni = uniform_baseline(mid_curves, eb_abs=_mid_eb(models))
    assert uni["mean_bitrate"] > 0 and uni["sum_sigma2"] > 0


def test_uniform_baseline_needs_a_grid_bound(curves, models):
    with pytest.raises(ValueError, match="not on the curves' grid"):
        uniform_baseline(curves, eb_abs=_mid_eb(models))
