"""Tests for the linear-scaling quantizer (§III-B) and the input checks
``compress`` and the model share with it."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import pipeline
from repro.compressor.quantizer import dequantize, quantize
from repro.core.model import RatioQualityModel

PREDICTORS = ["lorenzo", "interp", "regression"]
#: The two entry points that take a field: the compressor and the model.
ENTRY_POINTS = {
    "compress": lambda d, predictor: pipeline.compress(d, predictor, 1e-3),
    "model": lambda d, predictor: RatioQualityModel(d, predictor, seed=0),
}


def test_quantize_zero_errors():
    np.testing.assert_array_equal(quantize(np.zeros(5), 0.1), np.zeros(5, np.int64))


def test_quantize_bin_width_is_2eb():
    eb = 0.5
    # values just inside ±eb stay in bin 0; beyond move to ±1
    assert quantize(np.array([0.49]), eb)[0] == 0
    assert quantize(np.array([0.51]), eb)[0] == 1
    assert quantize(np.array([-0.51]), eb)[0] == -1


def test_dequantize_centers():
    eb = 0.25
    codes = np.array([-2, 0, 3], dtype=np.int64)
    np.testing.assert_allclose(dequantize(codes, eb), [-1.0, 0.0, 1.5])


def test_reconstruction_error_bounded_basic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000) * 10
    for eb in [1e-3, 0.1, 2.0]:
        assert np.max(np.abs(x - dequantize(quantize(x, eb), eb))) <= eb * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    st.floats(1e-6, 1e3),
)
def test_reconstruction_error_bounded_property(vals, eb):
    x = np.array(vals)
    assert np.max(np.abs(x - dequantize(quantize(x, eb), eb))) <= eb * (1 + 1e-9)


def test_quantize_rejects_bad_eb():
    """Only ``0 < eb < inf`` bounds anything: a zero, negative, NaN or
    infinite bound raises in the quantizer, in every compressor and
    measurement, and in the model's estimate."""
    d = np.random.default_rng(0).normal(size=(6, 7, 8))
    models = {p: RatioQualityModel(d, p, seed=0) for p in PREDICTORS}
    for eb in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="error bound"):
            quantize(np.zeros(3), eb)
        for predictor in PREDICTORS:
            with pytest.raises(ValueError, match="error bound"):
                pipeline.compress(d, predictor, eb)
            with pytest.raises(ValueError, match="error bound"):
                pipeline.measure(d, predictor, eb)
            with pytest.raises(ValueError, match="error bound"):
                models[predictor].estimate(eb)


def test_quantize_rejects_codes_outside_int64():
    """A rounded value of 2**63 or more would wrap to INT64_MIN in the
    cast; the largest code below it and -2**63 itself still convert."""
    top = np.nextafter(2.0**63, 0.0)
    np.testing.assert_array_equal(
        quantize(np.array([top, -(2.0**63)]), 0.5), [int(top), np.iinfo(np.int64).min]
    )
    for err in (2.0**63, -np.nextafter(2.0**63, np.inf), np.inf):
        with pytest.raises(ValueError, match="int64"):
            quantize(np.array([0.0, err]), 0.5)


def test_lorenzo_codes_outside_int64_raise_in_compress_and_model():
    """1e12 + N(0, 1e-3) at eb = range·1e-9: Lorenzo's lattice index of
    each point passes 2**63, so compressing raises instead of writing
    wrapped codes (read back 1e12 off), and so does the model's estimate."""
    d = 1e12 + np.random.default_rng(0).normal(scale=1e-3, size=(8, 8, 8))
    eb = float(d.max() - d.min()) * 1e-9
    with pytest.raises(ValueError, match="int64"):
        pipeline.compress(d, "lorenzo", eb)
    model = RatioQualityModel(d, "lorenzo", seed=0)
    with pytest.raises(ValueError, match="int64"):
        model.estimate(eb)


def test_quantize_dequantize_idempotent():
    """Quantizing reconstructed errors again is the identity."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=500)
    eb = 0.05
    q = quantize(x, eb)
    np.testing.assert_array_equal(quantize(dequantize(q, eb), eb), q)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_raises(entry, predictor, bad):
    """A NaN or ±inf value has no error-bounded code and no value range."""
    d = np.random.default_rng(0).normal(size=(8, 12, 12)).astype(np.float32)
    d[3, 5, 7] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        ENTRY_POINTS[entry](d, predictor)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("predictor", PREDICTORS)
def test_empty_field_raises(entry, predictor):
    with pytest.raises(ValueError, match="empty"):
        ENTRY_POINTS[entry](np.zeros((0, 4), np.float32), predictor)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("predictor", PREDICTORS)
def test_complex_field_raises(entry, predictor):
    """A complex field would lose its imaginary part, so ``|x − x'| ≤ eb``
    could not hold; it is refused, not cast with a ``ComplexWarning``."""
    d = np.random.default_rng(0).normal(size=(8, 12, 12)) * (1 + 1j)
    with pytest.raises(ValueError, match="not real numeric"):
        ENTRY_POINTS[entry](d, predictor)


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("dtype", ["int32", "uint8", "bool", "float16"])
@pytest.mark.parametrize("eb", [0.3, 2.0])
def test_integer_bool_and_half_fields_round_trip_within_bound(predictor, dtype, eb):
    """Real numeric fields other than float32/float64 compress as their
    float64 values, within the bound."""
    rng = np.random.default_rng(0)
    d = (rng.normal(size=(8, 12, 12)) * 40 + 100).astype(dtype)
    rec = pipeline.decompress(pipeline.compress(d, predictor, eb))
    assert np.abs(rec - d.astype(np.float64)).max() <= eb * (1 + 1e-9)
