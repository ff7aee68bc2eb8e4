"""Tests for histogram estimation and the correction layer (§III-D, Eq. 9)."""
import numpy as np
import pytest

from repro.compressor.quantizer import quantize
from repro.core import histogram as H


def test_code_histogram_weighted():
    errs = np.array([0.0, 0.0, 1.0, -1.0])
    wts = np.array([2.0, 2.0, 1.0, 3.0])
    syms, cnts = H.phase_smear(errs, wts, eb=0.4, alpha=0.0)  # bins of width 0.8
    assert list(syms) == [-1, 0, 1]
    assert list(cnts) == [3.0, 4.0, 1.0]


def test_p0_of():
    assert H.p0_of(np.array([-1, 0, 1]), np.array([1.0, 8.0, 1.0])) == 0.8
    assert H.p0_of(np.array([1, 2]), np.array([1.0, 1.0])) == 0.0
    assert H.p0_of(np.array([], np.int64), np.array([])) == 0.0


def test_phase_smear_conserves_mass():
    rng = np.random.default_rng(0)
    errs = rng.normal(size=1000)
    wts = np.ones(1000)
    syms, cnts = H.phase_smear(errs, wts, eb=0.3, alpha=1.0)
    assert cnts.sum() == pytest.approx(1000.0)


def test_phase_smear_alpha_zero_equals_plain_histogram():
    """With α = 0 the smear is the compressor's own quantization of the
    sampled errors: same bins, same counts."""
    rng = np.random.default_rng(1)
    errs = rng.normal(size=500)
    wts = np.ones(500)
    s0, c0 = np.unique(quantize(errs, 0.25), return_counts=True)
    s1, c1 = H.phase_smear(errs, wts, 0.25, alpha=0.0)
    np.testing.assert_array_equal(s0, s1)
    np.testing.assert_array_equal(c0, c1)


def test_phase_smear_reduces_p0_at_saturation():
    """Errors just inside the bin edge must leak out — the effect the raw
    sampled histogram misses at high error bounds."""
    errs = np.full(100, 0.9)  # |f| = 0.45 at eb=1 (bin width 2)
    wts = np.ones(100)
    s_raw, c_raw = H.phase_smear(errs, wts, 1.0, alpha=0.0)
    assert H.p0_of(s_raw, c_raw) == 1.0
    s_sm, c_sm = H.phase_smear(errs, wts, 1.0, alpha=1.0)
    assert H.p0_of(s_sm, c_sm) == pytest.approx(0.55)


def test_phase_alpha_table():
    assert H.phase_alpha("lorenzo", 1) == 0.25
    assert H.phase_alpha("lorenzo", 3) == 1.5
    assert H.phase_alpha("interp", 3) == 0.0
    assert H.phase_alpha("regression", 2) == 0.0
