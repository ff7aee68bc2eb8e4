"""End-to-end SZ3-lite pipeline tests (compression substrate, Fig. 2)."""
import numpy as np
import pytest

from repro import sci_data
from repro.compressor import pipeline
from repro.compressor.predictors import PREDICTORS

PREDS = ["lorenzo", "interp", "regression"]


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("ds,fld", [("SCALE", "PRES"), ("Nyx", "dark_matter"), ("Brown", "pressure")])
def test_roundtrip_error_bounded(pred, ds, fld):
    d = sci_data.generate(ds, fld, "test")
    rng = float(d.max() - d.min())
    eb = 1e-3 * rng
    c = pipeline.compress(d, pred, eb)
    rec = pipeline.decompress(c)
    assert np.max(np.abs(rec - np.asarray(d, np.float64))) <= eb + 1e-5 * rng


@pytest.mark.parametrize("pred", sorted(PREDICTORS))
@pytest.mark.parametrize("eb", [0.0, -0.1])
def test_compress_rejects_nonpositive_eb(pred, eb):
    """eb <= 0 has no error-bounded encoding; it must fail, not emit codes."""
    d = np.random.default_rng(0).normal(size=(16, 16))
    with pytest.raises(ValueError):
        pipeline.compress(d, pred, eb)


@pytest.mark.parametrize("pred", PREDS)
def test_bitrate_monotone_in_eb(pred):
    d = sci_data.generate("SCALE", "PRES", "test")
    rng = float(d.max() - d.min())
    brs = [
        pipeline.compress(d, pred, ebr * rng).bitrate()
        for ebr in (1e-4, 1e-3, 1e-2, 1e-1)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(brs, brs[1:]))


@pytest.mark.parametrize("pred", PREDS)
def test_p0_monotone_in_eb(pred):
    d = sci_data.generate("SCALE", "PRES", "test")
    rng = float(d.max() - d.min())
    p0s = [pipeline.compress(d, pred, ebr * rng).p0 for ebr in (1e-4, 1e-3, 1e-2)]
    assert p0s[0] <= p0s[1] <= p0s[2]


def test_lossless_never_larger_than_huffman():
    d = sci_data.generate("CESM", "TS", "test")
    rng = float(d.max() - d.min())
    for ebr in (1e-3, 1e-2, 1e-1):
        c = pipeline.compress(d, "lorenzo", ebr * rng)
        assert c.nbytes_lossless <= c.nbytes_huffman


def test_measure_reports_consistent_metrics():
    d = sci_data.generate("Hurricane", "TC", "test")
    rng = float(d.max() - d.min())
    m = pipeline.measure(d, "lorenzo", 1e-3 * rng, with_ssim=True, with_fft=True)
    assert m["max_err"] <= 1e-3 * rng * (1 + 1e-9)
    assert m["psnr"] > 40
    assert 0 < m["ssim"] <= 1
    assert m["fft_err"] >= 0
    assert m["bitrate_ll"] <= m["bitrate_huff"] + 1e-9
    assert 0 <= m["p0"] <= 1


def test_measure_without_ssim_gives_nan():
    d = sci_data.generate("Brown", "pressure", "test")
    rng = float(d.max() - d.min())
    m = pipeline.measure(d, "lorenzo", 1e-3 * rng, with_ssim=False)
    assert np.isnan(m["ssim"])


def test_psnr_tracks_error_bound():
    """Halving the error bound gains ~6 dB (the rate-distortion slope)."""
    d = sci_data.generate("Miranda", "vx", "test")
    rng = float(d.max() - d.min())
    p1 = pipeline.measure(d, "lorenzo", 4e-3 * rng)["psnr"]
    p2 = pipeline.measure(d, "lorenzo", 2e-3 * rng)["psnr"]
    assert p2 - p1 == pytest.approx(6.02, abs=1.5)


def test_compressed_sizes_include_side_channel():
    d = sci_data.generate("SCALE", "PRES", "test")
    rng = float(d.max() - d.min())
    c = pipeline.compress(d, "regression", 1e-2 * rng)
    assert c.side_bytes > 0
    assert c.nbytes_huffman >= c.side_bytes


def test_ratio_definition():
    d = sci_data.generate("SCALE", "PRES", "test")
    rng = float(d.max() - d.min())
    c = pipeline.compress(d, "lorenzo", 1e-2 * rng)
    assert c.ratio() == pytest.approx(4 * d.size / c.nbytes_huffman)
    assert c.bitrate() == pytest.approx(8 * c.nbytes_huffman / d.size)


def test_payload_is_real_bitstream():
    d = sci_data.generate("CESM", "TS", "test")
    rng = float(d.max() - d.min())
    c = pipeline.compress(d, "lorenzo", 1e-2 * rng)
    assert len(c.payload) == -(-c.huffman_payload_bits // 8)
    # decoding the payload recovers the code stream
    np.testing.assert_array_equal(
        c.code.decode(c.payload, c.codes.size), c.codes
    )


def test_measure_runs_lossless_stage_once(monkeypatch):
    from repro.compressor import rle

    calls = []
    real = rle.lossless_bytes
    monkeypatch.setattr(rle, "lossless_bytes", lambda p: calls.append(1) or real(p))
    d = sci_data.generate("CESM", "TS", "test")
    m = pipeline.measure(d, "lorenzo", 1e-3 * float(d.max() - d.min()))
    assert len(calls) == 1
    assert m["bitrate_ll"] == pytest.approx(8.0 * m["nbytes_ll"] / d.size)
