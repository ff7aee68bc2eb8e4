"""Tests for sampling helpers and the Table II "Sample Err." metric."""
import numpy as np
import pytest

from repro import sci_data
from repro.core.model import RatioQualityModel
from repro.core.sampling import sample_error_report, sample_values, weighted_std


def test_weighted_std_uniform_weights():
    x = np.random.default_rng(0).normal(size=1000)
    assert weighted_std(x, np.ones_like(x)) == pytest.approx(float(x.std()))


def test_weighted_std_respects_weights():
    x = np.array([0.0, 10.0])
    # weight mass almost entirely on 0 → tiny std
    assert weighted_std(x, np.array([1e6, 1.0])) < 0.1


def test_sample_values_deterministic_and_sized():
    d = np.random.default_rng(1).normal(size=(50, 50))
    a = sample_values(d, 0.05, seed=2)
    b = sample_values(d, 0.05, seed=2)
    np.testing.assert_array_equal(a, b)
    assert a.size == max(64, int(round(0.05 * d.size)))


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_sample_error_report_small(pred):
    """Fig. 4 / Table II: 1%-sample std within ~2% of range of the full
    prediction-error std (paper average: 0.12%)."""
    d = sci_data.generate("SCALE", "PRES", "test")
    rep = sample_error_report(d, pred, rate=0.01, seed=0)
    assert rep["std_full"] > 0
    assert rep["sample_err"] < 0.02


def test_sample_error_decreases_with_rate():
    d = sci_data.generate("Hurricane", "U", "test")
    errs = []
    for rate in (0.01, 0.3):
        reps = [
            sample_error_report(d, "lorenzo", rate=rate, seed=s)["sample_err"]
            for s in range(5)
        ]
        errs.append(np.mean(reps))
    assert errs[1] <= errs[0] + 1e-4


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
@pytest.mark.parametrize("shape", [(1, 16, 1), (4,), (3, 5)])
def test_model_on_fewer_points_than_sampling_floor(shape, pred):
    """Below the 64-point sampling floor every point is sampled: the model
    builds and estimates, and the sample report runs, as ``compress`` does."""
    d = np.random.default_rng(3).normal(size=shape).astype(np.float32)
    m = RatioQualityModel(d, pred, seed=0)
    est = m.estimate(m.abs_bound(1e-2))
    assert all(np.isfinite(est[k]) for k in ("bitrate_huff", "bitrate_ll", "psnr", "ssim"))
    rep = sample_error_report(d, pred, rate=0.01, seed=0)
    assert rep["sample_err"] == pytest.approx(0.0, abs=1e-12)  # sampled = whole field
