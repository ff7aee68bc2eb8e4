"""Tests for the compression-ratio model (§III-C, Eqs. 1–8)."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert est == pytest.approx(code.total_bits / code.counts.sum(), rel=0.04)


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


def test_rle_ratio_run_cap_bounds_extreme_p0(monkeypatch):
    monkeypatch.setattr(R, "MODEL_C1_BITS", 5.0)
    monkeypatch.setattr(R, "MODEL_RMAX", 1e18)
    uncapped = R.rle_ratio(1.0 - 1e-9, 1.0)
    monkeypatch.setattr(R, "MODEL_RMAX", 2048)
    capped = R.rle_ratio(1.0 - 1e-9, 1.0)
    assert capped < uncapped
    assert capped <= 2048 / 5.0 * 1.01  # ≤ l0·rmax/C1


def test_rle_ratio_never_below_one():
    assert R.rle_ratio(0.51, 10.0) >= 1.0


def test_lossless_bitrate_divides():
    b, p0 = 1.2, 0.95
    assert R.lossless_bitrate(b, p0) == pytest.approx(b / R.rle_ratio(p0, b))


@given(st.floats(1e-9, 1.0, exclude_max=True))
def test_log_bisect_brackets_monotone_threshold(thr):
    """The shared search keeps ok(lo), not ok(hi), and stops at a 0.1%
    bracket well inside its step cap."""
    ok = lambda x: x <= thr  # noqa: E731
    lo, hi = R.log_bisect(ok, 1e-9, 1.0)
    assert ok(lo) and not ok(hi)
    assert hi / lo < 1.001
