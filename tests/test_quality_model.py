"""Tests for the post-hoc quality model (§III-E, Eqs. 10–19)."""
import numpy as np
import pytest

from repro import analysis
from repro.core import quality_model as Q


def test_sigma_uniform():
    assert Q.sigma_e2_uniform(0.3) == pytest.approx(0.09 / 3)


def test_sigma_lattice_wide_range_is_uniform():
    """When the data spans many bins, lattice residuals are uniform ±eb."""
    vals = np.random.default_rng(0).uniform(0, 100, 200000)
    eb = 0.5
    assert Q.sigma_e2_lattice(vals, eb) == pytest.approx(eb**2 / 3, rel=0.02)


def test_sigma_lattice_narrow_range_concentrates():
    """2·eb ≫ data range: everything maps to one lattice point — the error
    is the data spread, far below eb²/3 (where Eq. 10 would be wrong)."""
    vals = np.random.default_rng(1).uniform(-0.01, 0.01, 10000)
    eb = 10.0
    s2 = Q.sigma_e2_lattice(vals, eb)
    assert s2 < 1e-3 < eb**2 / 3


def test_sigma_e2_mixture():
    """Eq. (11): central-bin samples keep their own (small) variance."""
    errs = np.concatenate([np.zeros(900), np.full(100, 5.0)])
    wts = np.ones_like(errs)
    eb = 1.0
    s2 = Q.sigma_e2(errs, wts, eb)
    # p0=0.9 concentrated at 0 variance + 0.1 uniform
    assert s2 == pytest.approx(0.1 * eb**2 / 3)


def test_sigma_e2_all_outside_is_uniform():
    errs = np.full(100, 7.0)
    assert Q.sigma_e2(errs, np.ones(100), 1.0) == pytest.approx(1 / 3)


def test_sigma_interp_active_level_forces_uniform():
    """If any refinement level is fully active, concentration dies."""
    errs = np.concatenate([np.full(64, 10.0), np.zeros(1000)])
    gids = np.concatenate([np.zeros(64, np.int64), np.ones(1000, np.int64)])
    s2 = Q.sigma_e2_interp(errs, np.ones_like(errs), gids, eb=1.0)
    assert s2 == pytest.approx(1 / 3)


def test_sigma_interp_all_quiet_concentrates():
    errs = np.full(1000, 0.01)
    gids = np.zeros(1000, np.int64)
    s2 = Q.sigma_e2_interp(errs, np.ones(1000), gids, eb=1.0)
    assert s2 < 0.01  # ≪ uniform 1/3


def test_sigma_interp_bounded_by_uniform():
    rng = np.random.default_rng(2)
    errs = rng.normal(size=2000)
    gids = rng.integers(0, 4, 2000)
    s2 = Q.sigma_e2_interp(errs, np.ones(2000), gids, eb=0.5)
    assert 0 <= s2 <= 0.5**2 / 3 + 1e-12


def _sigma_interp_reference(errs, wts, gids, eb):
    """``sigma_e2_interp`` with its quiet fractions taken group by group."""
    u = eb * eb / 3.0
    quiet = np.abs(errs) <= Q._TAU * eb
    q_min = 1.0
    for g in np.unique(gids):
        m = gids == g
        q_min = min(q_min, wts[m & quiet].sum() / wts[m].sum())
    wq = wts[quiet].sum()
    vq = min(2.0 * (wts[quiet] * errs[quiet] ** 2).sum() / wq, u) if wq > 0 and q_min > 0 else 0.0
    return (1.0 - q_min) * u + q_min * vq


@pytest.mark.parametrize("loud", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_sigma_interp_matches_per_group_reference(seed, loud):
    """The bincount quiet fractions equal a per-group loop, over strata of
    different sizes and weights with one id (3) absent; ``loud`` adds a
    group with no quiet sample."""
    rng = np.random.default_rng(seed)
    groups = {0: rng.normal(0, 0.05, 64), 1: rng.normal(0, 0.3, 200),
              2: rng.normal(0, 1.0, 900), 4: rng.normal(0, 0.2, 3000)}
    if loud:
        groups[5] = 10.0 + rng.random(64)  # above τ·eb at every eb below
    errs = np.concatenate(list(groups.values()))
    sizes = [v.size for v in groups.values()]
    wts = np.repeat(rng.uniform(1.0, 50.0, len(groups)), sizes)
    gids = np.repeat(list(groups), sizes)
    for eb in (0.01, 0.2, 1.0, 30.0):
        got = Q.sigma_e2_interp(errs, wts, gids, eb)
        assert got == pytest.approx(_sigma_interp_reference(errs, wts, gids, eb), rel=1e-12, abs=0)


def test_sigma_interp_empty_sample():
    """No sample (every point an anchor): no group, the loop's 0.0."""
    e = np.empty(0)
    assert Q.sigma_e2_interp(e, e, np.empty(0, np.int64), 1.0) == _sigma_interp_reference(
        e, e, np.empty(0, np.int64), 1.0
    ) == 0.0


def test_psnr_db_matches_injected_uniform_noise():
    """Inject uniform ±eb noise and compare Eq. (12), ``psnr_db`` of the
    uniform σ(E)², with the measured PSNR."""
    rng = np.random.default_rng(3)
    d = rng.normal(size=(64, 64)) * 10
    eb = 0.05
    noisy = d + rng.uniform(-eb, eb, d.shape)
    vrange = float(d.max() - d.min())
    est = analysis.psnr_db(vrange, Q.sigma_e2_uniform(eb))
    assert est == pytest.approx(analysis.psnr(d, noisy), abs=0.3)


def test_psnr_db_zero_error_infinite():
    assert analysis.psnr_db(10.0, 0.0) == float("inf")


def test_ssim_est_matches_injected_uniform_noise():
    rng = np.random.default_rng(4)
    d = rng.normal(size=(64, 64)) * 10
    eb = 0.5
    noisy = d + rng.uniform(-eb, eb, d.shape)
    vrange = float(d.max() - d.min())
    est = Q.ssim_est(float(d.var()), Q.sigma_e2_uniform(eb), vrange)
    meas = analysis.ssim_global(d, noisy)
    assert est == pytest.approx(meas, abs=0.01)


def test_ssim_est_monotone_in_error():
    assert Q.ssim_est(1.0, 0.0, 10.0) == pytest.approx(1.0)
    assert Q.ssim_est(1.0, 0.1, 10.0) > Q.ssim_est(1.0, 0.5, 10.0)


def test_fft_est_positive_and_monotone():
    pk = np.array([100.0, 50.0, 10.0])
    m = np.array([10, 40, 90])
    lo = Q.fft_rel_error_est(1e-6, 1000, pk, m)
    hi = Q.fft_rel_error_est(1e-2, 1000, pk, m)
    assert 0 < lo < hi


def test_fft_est_tracks_injected_noise():
    """White-noise injection: measured spectrum distortion within ~2× of the
    §III-E-4 estimate (the paper's Fig. 8 regime)."""
    rng = np.random.default_rng(5)
    from repro.sci_data import grf

    d = grf((32, 32, 32), -3.0, seed=9).astype(np.float64) * 100
    eb = 2.0
    noisy = d + rng.uniform(-eb, eb, d.shape)
    _, pk, modes = analysis.power_spectrum(d)
    est = Q.fft_rel_error_est(Q.sigma_e2_uniform(eb), d.size, pk, modes)
    meas = analysis.spectrum_rel_error(d, noisy)
    assert est == pytest.approx(meas, rel=1.0)
