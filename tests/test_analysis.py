"""Tests for the post-hoc analysis metrics (measured side of §III-E)."""
import numpy as np
import pytest

from repro import analysis


def test_psnr_identical_infinite():
    d = np.random.default_rng(0).normal(size=(16, 16))
    assert analysis.psnr(d, d) == float("inf")


def test_psnr_known_value():
    d = np.array([0.0, 1.0])  # range 1
    r = np.array([0.1, 1.0])  # mse 0.005
    assert analysis.psnr(d, r) == pytest.approx(10 * np.log10(1 / 0.005))


def test_psnr_decreases_with_noise():
    rng = np.random.default_rng(1)
    d = rng.normal(size=(32, 32))
    a = analysis.psnr(d, d + rng.normal(size=d.shape) * 0.01)
    b = analysis.psnr(d, d + rng.normal(size=d.shape) * 0.1)
    assert a > b


def test_ssim_identical_is_one():
    d = np.random.default_rng(2).normal(size=(32, 32))
    assert analysis.ssim_global(d, d) == pytest.approx(1.0)


def test_ssim_bounded_and_decreasing():
    rng = np.random.default_rng(3)
    d = rng.normal(size=(32, 32))
    s1 = analysis.ssim_global(d, d + rng.normal(size=d.shape) * 0.05)
    s2 = analysis.ssim_global(d, d + rng.normal(size=d.shape) * 0.5)
    assert 0 < s2 < s1 <= 1.0


def test_value_range():
    assert analysis.value_range(np.array([-2.0, 3.0])) == 5.0


def test_power_spectrum_peak_at_injected_frequency():
    n = 64
    x = np.arange(n)
    d = np.sin(2 * np.pi * 8 * x / n)  # wavenumber 8
    k, pk, cnt = analysis.power_spectrum(d)
    assert k[np.argmax(pk)] == pytest.approx(8.0, abs=0.5)


def test_power_spectrum_parseval_sanity():
    """Total binned power is positive and finite for a random field."""
    d = np.random.default_rng(4).normal(size=(16, 16, 16))
    k, pk, cnt = analysis.power_spectrum(d)
    assert np.isfinite(pk).all() and (pk >= 0).all()
    assert (cnt > 0).all()


def test_spectrum_rel_error_zero_for_identical():
    d = np.random.default_rng(5).normal(size=(16, 16))
    assert analysis.spectrum_rel_error(d, d) == 0.0


def test_spectrum_rel_error_grows_with_noise():
    rng = np.random.default_rng(6)
    d = rng.normal(size=(16, 16, 16))
    a = analysis.spectrum_rel_error(d, d + rng.normal(size=d.shape) * 0.01)
    b = analysis.spectrum_rel_error(d, d + rng.normal(size=d.shape) * 0.3)
    assert a < b


@pytest.mark.parametrize("shape", [(256,), (16, 16), (8, 8, 8)])
@pytest.mark.parametrize("noise", [0.0, 1e-3, 0.1])
def test_judge_agrees_with_each_metric(shape, noise):
    """One judgement: PSNR is ``psnr_db`` of its own range and MSE, MSE is
    at most the squared max error, ``psnr``/``ssim_global`` read its keys,
    and an exact reconstruction gives MSE 0, PSNR inf and SSIM 1."""
    rng = np.random.default_rng(7)
    d = rng.normal(size=shape).astype(np.float32)
    r = d + noise * rng.normal(size=shape)
    j = analysis.judge(d, r, with_ssim=True)
    assert j["psnr"] == analysis.psnr_db(analysis.value_range(d), j["mse"])
    assert j["mse"] <= j["max_err"] ** 2
    assert j["max_err"] == np.max(np.abs(np.asarray(d, np.float64) - r))
    assert j["psnr"] == analysis.psnr(d, r)
    assert j["ssim"] == analysis.ssim_global(d, r)
    assert np.isnan(analysis.judge(d, r)["ssim"])
    if noise == 0:
        assert (j["mse"], j["psnr"], j["ssim"]) == (0.0, float("inf"), 1.0)
    else:
        assert 0 < j["mse"] and np.isfinite(j["psnr"]) and j["ssim"] < 1


def _judge_formula(orig, recon, with_ssim):
    """``analysis.judge`` as it was written before it took a reference:
    the float64 views, the error field and SSIM's statistics each computed
    straight from both fields."""
    o = np.asarray(orig, dtype=np.float64)
    r = np.asarray(recon, dtype=np.float64)
    err = o - r
    mse = float(np.mean(err**2))
    max_err = float(np.max(np.abs(err)))
    rng = float(o.max()) - float(o.min())
    ssim = float("nan")
    if with_ssim:
        ssim = 1.0
        if rng != 0 and max_err != 0:
            o, r = o.ravel(), r.ravel()
            c4, c3 = (0.01 * rng) ** 2, (0.03 * rng) ** 2
            mu_o, mu_r = o.mean(), r.mean()
            var_o, var_r = o.var(), r.var()
            cov = float(np.mean((o - mu_o) * (r - mu_r)))
            ssim = float(
                (2 * mu_o * mu_r + c4)
                * (2 * cov + c3)
                / ((mu_o**2 + mu_r**2 + c4) * (var_o + var_r + c3))
            )
    return {"mse": mse, "max_err": max_err, "psnr": analysis.psnr_db(rng, mse), "ssim": ssim}


def _same(a: dict, b: dict) -> bool:
    """Equal floats, key by key, with NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (np.isnan(a[k]) and np.isnan(b[k])) for k in a
    )


@pytest.mark.parametrize("with_ssim", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["noisy", "exact", "constant", "constant noisy"])
@pytest.mark.parametrize("shape", [(1,), (257,), (17, 19), (5, 1, 9), (2, 3, 5, 7)], ids=str)
def test_reference_judge_is_the_formula_bit_for_bit(shape, case, dtype, with_ssim):
    """One reference judges every reconstruction exactly (``==``) as the
    straight formula does, SSIM on and off, for a constant field and for
    an exact reconstruction too; ``judge`` is the reference's."""
    rng = np.random.default_rng(sum(shape))
    d = (rng.normal(size=shape) * 100 + 3).astype(dtype)
    if case.startswith("constant"):
        d = np.full(shape, 2.5, dtype)
    recons = [d] if case in ("exact", "constant") else [
        d + s * rng.normal(size=shape) for s in (1e-6, 1e-2, 10.0)
    ]
    ref = analysis.reference(d, with_ssim)
    for r in recons:
        want = _judge_formula(d, r, with_ssim)
        assert _same(ref.judge(r), want)
        assert _same(analysis.judge(d, r, with_ssim), want)


@pytest.mark.parametrize(
    "orig,recon",
    [
        ([1.0, -2.0, 3.0], [1.0, -2.0, 3.0]),  # exact: +0.0
        ([-0.0, -0.0], [0.0, 0.0]),  # errors of -0.0 only: +0.0 too
        ([-0.0, 1.0], [0.0, 1.0]),
        ([1.0, -2.0, 3.0], [1.5, -1.0, 2.75]),
        ([1.0, 2.0], [np.nan, 2.0]),
    ],
)
def test_judge_max_err_is_the_abs_max_bit_for_bit(orig, recon):
    """``max_err``, the larger of the error's max and minus its min, is
    ``np.max(np.abs(err))`` to the bit, sign of zero and NaN included."""
    o, r = np.array(orig), np.array(recon)
    want = np.max(np.abs(o - r))
    assert np.float64(analysis.judge(o, r)["max_err"]).tobytes() == want.tobytes()


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_judge_constant_field_psnr_inf(offset):
    """A constant field has no range to scale an error by: PSNR inf and
    SSIM 1 whether or not the reconstruction is exact."""
    d = np.full((8, 8), 2.0)
    j = analysis.judge(d, d + offset, with_ssim=True)
    assert j["mse"] == offset**2 and j["max_err"] == offset
    assert (j["psnr"], j["ssim"]) == (float("inf"), 1.0)


@pytest.mark.parametrize(
    "vrange,mse,expected",
    [(1.0, 0.005, 10 * np.log10(200.0)), (2.0, 0.0, float("inf")), (0.0, 0.5, float("inf"))],
)
def test_psnr_db(vrange, mse, expected):
    """Eq. 14, inf at zero error or zero range (never -inf)."""
    assert analysis.psnr_db(vrange, mse) == pytest.approx(expected)
