"""Tests for the three SZ predictors (§III-D): error-bound guarantees,
round-trips, sampling strategies, and the Lorenzo lattice identity."""
import math

import numpy as np
import pytest

from repro import sci_data
from repro.compressor.predictors import (
    Interpolation,
    Lorenzo,
    Regression,
    _anchor_stride,
    _interp_groups,
    draw_sample,
    get_predictor,
)

PREDS = ["lorenzo", "interp", "regression"]
SHAPES = [(37,), (13, 21), (7, 11, 13), (2, 3, 10, 11)]


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape) * 10.0


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_error_bound_random_data(pred, shape):
    d = _rand(shape)
    p = get_predictor(pred)
    for eb in [1e-3, 0.1, 2.0]:
        codes, extras = p.compress(d, eb)
        rec = p.decompress(codes, shape, eb, extras)
        # interp anchors are stored float32 → bound holds up to fp32 rounding
        tol = eb + 1e-5 * np.abs(d).max()
        assert np.max(np.abs(rec - d)) <= tol, (pred, shape, eb)


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("ds,fld", [("SCALE", "PRES"), ("CESM", "TS"), ("HACC", "xx"), ("EXAFEL", "raw")])
def test_error_bound_scientific_fields(pred, ds, fld):
    d = sci_data.generate(ds, fld, "test")
    rng = float(d.max() - d.min())
    eb = 1e-3 * rng
    p = get_predictor(pred)
    codes, extras = p.compress(d, eb)
    rec = p.decompress(codes, d.shape, eb, extras)
    assert np.max(np.abs(rec - np.asarray(d, np.float64))) <= eb + 1e-5 * rng


@pytest.mark.parametrize("pred", PREDS)
def test_coded_count_matches_emitted(pred):
    shape = (7, 11, 13)
    d = _rand(shape)
    p = get_predictor(pred)
    codes, _ = p.compress(d, 0.1)
    assert codes.size == p.coded_count(shape)


@pytest.mark.parametrize("pred", PREDS)
def test_codes_mostly_zero_on_smooth_data(pred):
    d = sci_data.generate("SCALE", "PRES", "test")
    rng = float(d.max() - d.min())
    p = get_predictor(pred)
    codes, _ = p.compress(d, 0.02 * rng)
    assert (codes == 0).mean() > 0.8  # the zero-dominance the paper relies on


@pytest.mark.parametrize("pred", PREDS)
def test_sample_weights_sum_to_coded_count(pred):
    shape = (12, 24, 24)
    d = _rand(shape)
    p = get_predictor(pred)
    s = p.sample_errors(d, rate=0.05, seed=1)
    assert s.errors.shape == s.weights.shape
    assert s.weights.sum() == pytest.approx(p.coded_count(shape), rel=0.02)


@pytest.mark.parametrize("pred", PREDS)
def test_sampling_deterministic(pred):
    d = _rand((10, 20, 20))
    p = get_predictor(pred)
    a = p.sample_errors(d, 0.02, seed=3)
    b = p.sample_errors(d, 0.02, seed=3)
    np.testing.assert_array_equal(a.errors, b.errors)


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("shape", [(1,), (37,), (1, 9), (13, 21), (7, 1, 13), (2, 3, 10, 11)])
@pytest.mark.parametrize("rate", [0.01, 0.3, 1.0])
def test_sample_is_prediction_errors_at_drawn_items(pred, shape, rate):
    """One stratified walk: stratum by stratum, the sample is the full
    prediction-error field gathered at ``draw_sample``'s indices (one RNG,
    strata in order), weighted n/m and tagged with the stratum id; at rate
    1 every stratum is a permutation of its items."""
    d = _rand(shape, seed=4)
    p = get_predictor(pred)
    s = p.sample_errors(d, rate, seed=5)
    full = p.prediction_errors(d)
    assert full.size == p.coded_count(shape)
    per_item = math.prod(p._block_shape(d.ndim)) if pred == "regression" else 1
    rng = np.random.default_rng(5)
    start = 0
    for gid, (n, _) in enumerate(p._strata(d)):
        items = full[start : start + n * per_item].reshape(n, per_item)
        start += n * per_item
        idx, w = draw_sample(n, rate, rng)
        if rate == 1.0:
            np.testing.assert_array_equal(np.sort(idx), np.arange(n))
        m = s.group_ids == gid
        np.testing.assert_array_equal(s.errors[m], items[idx].ravel())
        np.testing.assert_array_equal(s.weights[m], w)
    assert start == full.size
    assert s.group_ids.size == s.errors.size == s.weights.size


def test_unknown_predictor():
    with pytest.raises(KeyError):
        get_predictor("dct")


# ---------------------------------------------------------------------------
# Lorenzo specifics
# ---------------------------------------------------------------------------
def test_lorenzo_forward_inverse_roundtrip():
    rng = np.random.default_rng(2)
    for shape in SHAPES:
        k = rng.integers(-100, 100, size=shape)
        q = Lorenzo._forward(k.copy())
        np.testing.assert_array_equal(Lorenzo._inverse(q), k)


_ODD_SHAPES = [(1,), (7,), (1, 1), (5, 1), (1, 9), (3, 5), (3, 1, 5), (5, 7, 9), (1, 3, 1, 5), (3, 5, 1, 7)]


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("shape", _ODD_SHAPES, ids=str)
def test_lorenzo_forward_inverse_match_numpy_bit_for_bit(shape, dtype):
    """``_forward`` is ``np.diff(prepend=0)`` along each axis and
    ``_inverse`` is ``np.cumsum`` along each axis, bit for bit (dtype,
    values, signed zeros), on odd and length-1 axes; neither writes its
    input."""
    rng = np.random.default_rng(len(shape))
    a = (rng.normal(size=shape) * 1e3).astype(dtype)
    if dtype is np.float64:
        a.flat[0] = -0.0
    before = a.copy()

    diff, csum = a, a
    for ax in range(a.ndim):
        diff = np.diff(diff, axis=ax, prepend=0)
        csum = np.cumsum(csum, axis=ax)
    for got, want in ((Lorenzo._forward(a), diff), (Lorenzo._inverse(a), csum)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert a.tobytes() == before.tobytes()


def test_lorenzo_lattice_identity():
    """Reconstruction equals elementwise lattice rounding — the identity
    that makes the sequential SZ loop vectorizable (DESIGN.md §2)."""
    d = _rand((9, 14))
    eb = 0.3
    p = Lorenzo()
    codes, extras = p.compress(d, eb)
    rec = p.decompress(codes, d.shape, eb, extras)
    np.testing.assert_allclose(rec, 2 * eb * np.rint(d / (2 * eb)), atol=1e-12)


def test_lorenzo_prediction_errors_are_finite_differences():
    d = _rand((6, 7))
    e = Lorenzo().prediction_errors(d).reshape(d.shape)
    # interior point: d[i,j] - (d[i-1,j] + d[i,j-1] - d[i-1,j-1])
    i, j = 3, 4
    expect = d[i, j] - d[i - 1, j] - d[i, j - 1] + d[i - 1, j - 1]
    assert e[i, j] == pytest.approx(expect)


def test_lorenzo_constant_data_one_nonzero_code():
    d = np.full((8, 8), 5.0)
    codes, _ = Lorenzo().compress(d, 0.1)
    assert (codes != 0).sum() == 1  # only the first point's lattice index


# ---------------------------------------------------------------------------
# Interpolation specifics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(17,), (16,), (13, 9), (7, 11, 13), (12, 24, 24)])
def test_interp_groups_cover_every_point_once(shape):
    s0 = _anchor_stride(shape)
    seen = np.zeros(shape, dtype=int)
    seen[tuple(slice(0, None, s0) for _ in shape)] += 1  # anchors
    for s, ax, tgt, base, nt in _interp_groups(shape, s0):
        seen[tgt] += 1
    assert (seen == 1).all()


def test_interp_anchor_count():
    p = Interpolation()
    shape = (12, 24, 24)
    s0 = _anchor_stride(shape)
    n_anchors = np.prod([len(range(0, n, s0)) for n in shape])
    assert p.coded_count(shape) == np.prod(shape) - n_anchors
    assert p.side_bytes(shape) == 4 * n_anchors


def test_interp_decompress_matches_compress_side_reconstruction():
    """Decoder replays the exact reconstruction the encoder produced."""
    d = _rand((13, 21))
    p = Interpolation()
    eb = 0.2
    codes, extras = p.compress(d, eb)
    rec = p.decompress(codes, d.shape, eb, extras)
    codes2, _ = p.compress(rec, eb)
    rec2 = p.decompress(codes2, d.shape, eb, extras)
    np.testing.assert_allclose(rec2, rec, atol=1e-9)


def test_interp_linear_data_zero_codes():
    """Linear ramps are predicted exactly by linear interpolation."""
    x = np.linspace(0, 100, 33)
    codes, _ = Interpolation().compress(x, 0.01)
    assert (codes == 0).all()


def test_interp_sample_group_ids_ordered():
    d = _rand((12, 24, 24))
    s = Interpolation().sample_errors(d, 0.05, seed=0)
    assert s.group_ids is not None
    assert (np.diff(s.group_ids) >= 0).all()  # coarse → fine order


# ---------------------------------------------------------------------------
# Regression specifics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(37,), (13, 21), (7, 11, 13), (2, 3, 10, 11)])
def test_regression_block_roundtrip(shape):
    p = Regression()
    d = _rand(shape)
    blocks = p._to_blocks(d)
    back = p._from_blocks(blocks, shape)
    np.testing.assert_array_equal(back, d)


def test_regression_exact_on_linear_data():
    """A linear field is fit exactly → all residual codes ≈ 0."""
    z, y, x = np.meshgrid(*[np.arange(n, dtype=float) for n in (12, 12, 12)], indexing="ij")
    d = 3.0 + 0.5 * x - 0.25 * y + 0.125 * z
    codes, _ = Regression().compress(d, 1e-3)
    assert (codes == 0).mean() > 0.999


def test_regression_side_bytes_counts_coefficients():
    p = Regression()
    shape = (12, 12, 12)
    nblocks = (12 // 6) ** 3
    assert p.side_bytes(shape) == 4 * 4 * nblocks  # (β0,βx,βy,βz) float32


def test_regression_4d_blocks_over_last_three_axes():
    p = Regression()
    assert p._block_shape(4) == (1, 6, 6, 6)
    d = _rand((2, 3, 10, 11))
    codes, extras = p.compress(d, 0.5)
    rec = p.decompress(codes, d.shape, 0.5, extras)
    assert np.max(np.abs(rec - d)) <= 0.5 + 1e-4
