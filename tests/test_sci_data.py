"""Tests for the synthetic SDRBench stand-ins (Table I substrate)."""
import numpy as np
import pytest

from repro import sci_data
from repro.config import SHAPES
from repro.sci_data import FIELDS, generate, grf, rtm_snapshot

FIELD_NAMES = [(f.dataset, f.field) for f in FIELDS]


@pytest.mark.parametrize("ds,fld", FIELD_NAMES)
def test_generate_shape_dtype(ds, fld):
    a = generate(ds, fld, "test")
    assert a.dtype == np.float32
    assert a.shape == SHAPES["test"][ds]


@pytest.mark.parametrize("ds,fld", FIELD_NAMES)
def test_generate_deterministic(ds, fld):
    a = generate(ds, fld, "test")
    b = generate(ds, fld, "test")
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("ds,fld", FIELD_NAMES)
def test_generate_finite_nonconstant(ds, fld):
    a = generate(ds, fld, "test")
    assert np.isfinite(a).all()
    assert float(a.max()) > float(a.min())


def test_field_count_matches_table2():
    assert len(FIELDS) == 17  # 17 fields across 10 datasets (Table II)
    assert len({f.dataset for f in FIELDS}) == 10


def test_ndim_matches_table1():
    dims = {f.dataset: f.ndim for f in FIELDS}
    assert dims["CESM"] == 2
    assert dims["EXAFEL"] == 4
    assert dims["HACC"] == 1 and dims["Brown"] == 1
    assert dims["Nyx"] == 3 and dims["RTM"] == 3


def test_unknown_field_raises():
    with pytest.raises(KeyError):
        generate("Nope", "x", "test")


def test_ssim_flags():
    no_ssim = {f.dataset for f in FIELDS if not f.has_ssim}
    assert no_ssim == {"HACC", "Brown", "EXAFEL"}  # the "-" rows of Table II


def test_grf_standardized():
    f = grf((64, 64), -3.0, seed=1)
    assert abs(float(f.mean())) < 1e-5
    assert abs(float(f.std()) - 1.0) < 1e-5


def test_grf_slope_controls_smoothness():
    """Steeper spectral slope → smaller first differences (smoother)."""
    rough = grf((64, 64), -1.0, seed=2)
    smooth = grf((64, 64), -4.0, seed=2)
    assert np.abs(np.diff(smooth, axis=0)).mean() < np.abs(np.diff(rough, axis=0)).mean()


def test_grf_deterministic_in_seed():
    np.testing.assert_array_equal(grf((16, 16), -3, 5), grf((16, 16), -3, 5))
    assert not np.array_equal(grf((16, 16), -3, 5), grf((16, 16), -3, 6))


def test_rtm_snapshot_radius_grows():
    """Later timesteps activate more of the volume (harder to compress)."""
    shape = (16, 32, 32)
    def active_frac(t):
        d = rtm_snapshot(t, shape)
        thr = 0.01 * float(np.abs(d).max())
        return float((np.abs(d) > thr).mean())
    assert active_frac(2400) > active_frac(1000)


def test_rtm_snapshot_deterministic():
    np.testing.assert_array_equal(
        rtm_snapshot(2000, (8, 16, 16)), rtm_snapshot(2000, (8, 16, 16))
    )


def test_nyx_dark_matter_skewed():
    a = generate("Nyx", "dark_matter", "test").astype(np.float64)
    # log-normal: mean far above median
    assert a.mean() > 2 * np.median(a)


def test_brown_is_random_walk():
    a = generate("Brown", "pressure", "test").astype(np.float64)
    # increments are ~N(0,1): bounded std, while the walk itself wanders
    inc = np.diff(a)
    assert 0.5 < inc.std() < 2.0
    assert a.std() > 5 * inc.std()


def test_hacc_xx_in_box_and_clustered():
    a = generate("HACC", "xx", "test").astype(np.float64)
    assert a.min() >= 0.0 and a.max() <= 257.0
    # consecutive positions are mostly near each other (cell-clustered)
    assert np.median(np.abs(np.diff(a))) < 10.0
