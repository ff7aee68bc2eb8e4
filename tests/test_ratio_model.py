"""Tests for the compression-ratio model (§III-C, Eqs. 1–8)."""
import numpy as np
import pytest

from repro.compressor import huffman
from repro.core import ratio_model as R


def test_huffman_bitrate_uniform_distribution():
    # 8 equiprobable symbols → exactly 3 bits
    cnts = np.full(8, 100.0)
    assert R.huffman_bitrate(cnts) == pytest.approx(3.0)


def test_huffman_bitrate_matches_real_huffman():
    """Eq. (1)'s entropy estimate tracks the real coder within ~4%."""
    rng = np.random.default_rng(0)
    stream = rng.geometric(0.35, size=50000) - 1
    code = huffman.build(stream)
    est = R.huffman_bitrate(code.counts.astype(float))
    assert est == pytest.approx(code.bitrate(), rel=0.04)


def test_huffman_bitrate_min_one_bit():
    # extremely dominant symbol: estimate floors at ~1 bit contribution
    cnts = np.array([1e6, 1.0])
    b = R.huffman_bitrate(cnts)
    assert b >= 1.0


def test_huffman_bitrate_empty():
    assert R.huffman_bitrate(np.array([])) == 0.0
    assert R.huffman_bitrate(np.array([0.0, 0.0])) == 0.0


def test_rle_ratio_inactive_below_half():
    assert R.rle_ratio(0.4, 2.0) == 1.0
    assert R.rle_ratio(0.0, 5.0) == 1.0


def test_rle_ratio_monotone_in_p0():
    rs = [R.rle_ratio(p0, 1.05) for p0 in (0.6, 0.8, 0.95, 0.99, 0.999)]
    assert all(b >= a - 1e-12 for a, b in zip(rs, rs[1:]))
    assert rs[-1] > 10  # near-all-zero streams collapse


def test_rle_ratio_run_cap_bounds_extreme_p0():
    uncapped = R.rle_ratio(1.0 - 1e-9, 1.0, c1_bits=5.0, rmax=1e18)
    capped = R.rle_ratio(1.0 - 1e-9, 1.0, c1_bits=5.0, rmax=2048)
    assert capped < uncapped
    assert capped <= 2048 / 5.0 * 1.01  # ≤ l0·rmax/C1


def test_rle_ratio_never_below_one():
    assert R.rle_ratio(0.51, 10.0) >= 1.0


def test_lossless_bitrate_divides():
    b, p0 = 1.2, 0.95
    assert R.lossless_bitrate(b, p0) == pytest.approx(b / R.rle_ratio(p0, b))


def test_invert_bitrate_on_synthetic_curve():
    """Invert B(e) = 8 - log2(e/e0) exactly (the Eq. 2 regime)."""
    e0 = 1e-4
    est = lambda e: 8.0 - np.log2(e / e0)  # noqa: E731
    e = R.invert_bitrate(est, target=5.0, eb_lo=1e-6, eb_hi=1.0)
    assert est(e) == pytest.approx(5.0, abs=0.01)


def test_invert_bitrate_clamps_to_range():
    est = lambda e: 4.0  # noqa: E731  (flat curve)
    assert R.invert_bitrate(est, 10.0, 1e-5, 1e-1) == pytest.approx(1e-5)
    assert R.invert_bitrate(est, 1.0, 1e-5, 1e-1) == pytest.approx(1e-1)
