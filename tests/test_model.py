"""Tests for the RatioQualityModel façade — the paper's contribution end to
end: accuracy against the real compressor and both inverse mappings."""
import numpy as np
import pytest

from repro import analysis, sci_data
from repro.compressor import pipeline
from repro.core import histogram
from repro.core.model import RatioQualityModel
from repro.core.quality_model import psnr_est, sigma_e2_uniform

FIELDS = [("SCALE", "PRES"), ("CESM", "TS"), ("Brown", "pressure")]
PREDS = ["lorenzo", "interp", "regression"]


@pytest.fixture(scope="module")
def field_data():
    return {k: sci_data.generate(*k, "test") for k in FIELDS}


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("key", FIELDS)
def test_estimate_keys_and_sanity(field_data, pred, key):
    d = field_data[key]
    m = RatioQualityModel(d, pred, seed=1)
    est = m.estimate(m.abs_bound(1e-3))
    for k in ("bitrate_huff", "bitrate_ll", "p0", "psnr", "ssim", "sigma_e2"):
        assert k in est
    assert est["bitrate_ll"] <= est["bitrate_huff"] + 1e-9
    assert 0 <= est["p0"] <= 1
    assert 0 < est["ssim"] <= 1
    assert est["sigma_e2"] >= 0


@pytest.mark.parametrize("pred", PREDS)
def test_bitrate_estimate_tracks_measurement(field_data, pred):
    d = field_data[("SCALE", "PRES")]
    rng = float(d.max() - d.min())
    m = RatioQualityModel(d, pred, seed=2)
    for ebr in (1e-3, 1e-2):
        est = m.estimate(ebr * rng)["bitrate_huff"]
        meas = pipeline.measure(d, pred, ebr * rng)["bitrate_huff"]
        assert est == pytest.approx(meas, rel=0.30)


@pytest.mark.parametrize("pred", PREDS)
def test_psnr_estimate_tracks_measurement(field_data, pred):
    d = field_data[("SCALE", "PRES")]
    rng = float(d.max() - d.min())
    m = RatioQualityModel(d, pred, seed=3)
    for ebr in (1e-3, 1e-2):
        est = m.estimate(ebr * rng)["psnr"]
        meas = pipeline.measure(d, pred, ebr * rng)["psnr"]
        assert abs(est - meas) < 3.0  # dB


def test_estimates_monotone_in_eb(field_data):
    d = field_data[("CESM", "TS")]
    m = RatioQualityModel(d, "lorenzo", seed=4)
    ebs = [m.abs_bound(r) for r in (1e-4, 1e-3, 1e-2, 1e-1)]
    est = [m.estimate(e) for e in ebs]
    brs = [e["bitrate_huff"] for e in est]
    psnrs = [e["psnr"] for e in est]
    assert all(a >= b - 1e-9 for a, b in zip(brs, brs[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(psnrs, psnrs[1:]))


def test_error_bound_for_bitrate_roundtrip(field_data):
    d = field_data[("SCALE", "PRES")]
    m = RatioQualityModel(d, "lorenzo", seed=5)
    target = 3.0
    eb = m.error_bound_for_bitrate(target)
    assert m.estimate(eb)["bitrate_ll"] == pytest.approx(target, abs=0.05)
    # and the *real* compressor lands near the target too
    meas = pipeline.measure(d, "lorenzo", eb)["bitrate_ll"]
    assert meas == pytest.approx(target, rel=0.25)


def test_error_bound_for_psnr_roundtrip(field_data):
    d = field_data[("CESM", "TS")]
    m = RatioQualityModel(d, "lorenzo", seed=6)
    eb = m.error_bound_for_psnr(60.0)
    assert m.estimate(eb)["psnr"] >= 60.0 - 0.1
    meas = pipeline.measure(d, "lorenzo", eb)["psnr"]
    assert meas >= 58.0


@pytest.mark.parametrize("pred", PREDS)
def test_error_bound_for_mse_brackets_target(field_data, pred):
    """The returned bound meets the MSE budget and 0.1% more does not (the
    solver's stopping bracket), for a 56 dB budget that lands strictly
    inside the search range [range·1e-9, range]."""
    d = field_data[("SCALE", "PRES")]
    m = RatioQualityModel(d, pred, seed=8)
    target = m.value_range**2 * 10.0 ** (-56.0 / 10.0)
    eb = m.error_bound_for_mse(target)
    assert m.value_range * 1e-9 < eb < m.value_range
    assert m._sigma_e2(eb) <= target
    assert m._sigma_e2(eb * 1.001) > target


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("eb", [0.0, -0.1])
def test_estimates_reject_nonpositive_eb(field_data, pred, eb):
    """The model refuses eb <= 0 with compress's ValueError instead of
    returning a bit-rate and a NaN, infinite or made-up PSNR."""
    d = field_data[("SCALE", "PRES")]
    m = RatioQualityModel(d, pred, seed=3)
    _, pk, modes = analysis.power_spectrum(np.asarray(d, np.float64))
    with pytest.raises(ValueError, match="error bound must be positive"):
        m.estimate(eb)
    with pytest.raises(ValueError, match="error bound must be positive"):
        m.estimate_fft(eb, pk, modes)


def test_uniform_only_baseline_differs_at_high_eb(field_data):
    """The prior-work uniform-distribution baseline (dashed lines in
    Figs. 6/8) must coincide at low error bounds and diverge at high ones
    for a predictor with central-bin concentration."""
    d = field_data[("SCALE", "PRES")]
    m = RatioQualityModel(d, "regression", seed=7)
    lo = m.abs_bound(1e-4)
    hi = m.abs_bound(1e-1)

    def uniform(eb):
        return psnr_est(m.value_range, sigma_e2_uniform(eb))

    assert m.estimate(lo)["psnr"] == pytest.approx(uniform(lo), abs=0.5)
    assert m.estimate(hi)["psnr"] > uniform(hi) + 1.0


def test_phase_correction_beats_none_at_high_eb(field_data, monkeypatch):
    """The correction layer's whole point (§III-D-4): better histogram at
    high error bounds than the raw sampled one (α = 0)."""
    d = field_data[("CESM", "TS")]
    rng = float(d.max() - d.min())
    eb = 2e-2 * rng
    meas = pipeline.measure(d, "lorenzo", eb)["bitrate_huff"]
    with_corr = RatioQualityModel(d, "lorenzo", seed=9).estimate(eb)["bitrate_huff"]
    monkeypatch.setattr(histogram, "phase_alpha", lambda p, d: 0.0)
    without = RatioQualityModel(d, "lorenzo", seed=9).estimate(eb)["bitrate_huff"]
    assert without != with_corr
    assert abs(with_corr - meas) <= abs(without - meas) + 1e-9


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("value", [0.0, 5.0])
def test_estimate_on_constant_field(pred, value):
    """A constant field has no error and no variance: the model reports
    infinite PSNR and SSIM 1 instead of dividing 0 by 0."""
    m = RatioQualityModel(np.full((12, 24, 24), value), pred)
    est = m.estimate(0.1)
    assert est["sigma_e2"] == 0.0
    assert est["psnr"] == float("inf")
    assert est["ssim"] == 1.0
    assert np.isfinite(est["bitrate_ll"]) and est["bitrate_ll"] > 0


def test_model_deterministic(field_data):
    d = field_data[("SCALE", "PRES")]
    a = RatioQualityModel(d, "lorenzo", seed=11).estimate(0.5)
    b = RatioQualityModel(d, "lorenzo", seed=11).estimate(0.5)
    assert a == b


def test_fft_estimate(field_data):
    from repro import analysis

    d = field_data[("SCALE", "PRES")].astype(np.float64)
    rng = float(d.max() - d.min())
    _, pk, modes = analysis.power_spectrum(d)
    m = RatioQualityModel(d, "lorenzo", seed=13)
    lo = m.estimate_fft(1e-4 * rng, pk, modes)
    hi = m.estimate_fft(1e-2 * rng, pk, modes)
    assert 0 < lo < hi


def test_model_build_uses_sample_not_full_pass(field_data):
    """Sample size stays ~max(1%, floors) of the data."""
    d = field_data[("CESM", "TS")]
    m = RatioQualityModel(d, "lorenzo", sample_rate=0.01, seed=14)
    assert m.errors.size <= 0.1 * d.size
