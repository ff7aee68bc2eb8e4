"""Benchmarks: SZ3-lite compression substrate throughput (bench scale)."""
import numpy as np
import pytest

from repro import sci_data
from repro.analysis import value_range
from repro.compressor import huffman, pipeline
from repro.compressor.predictors import get_predictor


@pytest.fixture(scope="module")
def field():
    return sci_data.generate("SCALE", "PRES", "bench")


@pytest.fixture(scope="module")
def eb(field):
    return 1e-3 * value_range(field)


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_predict_quantize(benchmark, field, eb, pred):
    p = get_predictor(pred)
    benchmark(p.compress, field, eb)


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_full_compress(benchmark, field, eb, pred):
    benchmark(pipeline.compress, field, pred, eb)


def test_decompress(benchmark, field, eb):
    c = pipeline.compress(field, "lorenzo", eb)
    benchmark(pipeline.decompress, c)


@pytest.fixture(scope="module", params=[1e-3, 1e-6], ids=["eb1e-3", "eb1e-6"])
def codes(request, field):
    """Lorenzo codes at eb = 1e-3 x range (25 distinct symbols, dense span)
    and 1e-6 x range (5,995, span above the stream length: the heap-heavy
    build and the sparse histogram/lookup fallbacks)."""
    eb = request.param * value_range(field)
    return get_predictor("lorenzo").compress(field, eb)[0]


def test_huffman_build(benchmark, codes):
    benchmark(huffman.build, codes)


def test_huffman_encode_bitstream(benchmark, codes):
    code = huffman.build(codes)
    benchmark(code.encode, codes)


def test_huffman_decode(benchmark, codes):
    code = huffman.build(codes)
    payload = code.encode(codes)
    out = benchmark(code.decode, payload, codes.size)
    assert np.array_equal(out, codes)


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_to_bytes_from_bytes(benchmark, field, eb, pred):
    c = pipeline.compress(field, pred, eb)

    def roundtrip():
        return pipeline.from_bytes(pipeline.to_bytes(c))

    back = benchmark(roundtrip)
    assert np.array_equal(back.codes, c.codes)
