"""End-to-end SZ3-lite pipeline tests (compression substrate, Fig. 2)."""
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    m = pipeline.measure(d, "lorenzo", 1e-3 * rng, with_ssim=True)
    assert m["max_err"] <= 1e-3 * rng * (1 + 1e-9)
    assert m["psnr"] > 40
    assert 0 < m["ssim"] <= 1
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


def test_bitrate_definition():
    d = sci_data.generate("SCALE", "PRES", "test")
    rng = float(d.max() - d.min())
    c = pipeline.compress(d, "lorenzo", 1e-2 * rng)
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


# -- the compressed-byte format ----------------------------------------------

_ZLIB_FLAG = 0x80


def _assert_roundtrip(c):
    """The blob is the accounted size and decodes to the same codes and
    the same reconstruction, bit for bit."""
    blob = pipeline.to_bytes(c)
    assert len(blob) == c.nbytes_lossless
    back = pipeline.from_bytes(blob)
    np.testing.assert_array_equal(back.codes, c.codes)
    assert back.codes.dtype == c.codes.dtype
    np.testing.assert_array_equal(pipeline.decompress(back), pipeline.decompress(c))
    assert (back.predictor, back.eb_abs, back.shape) == (c.predictor, c.eb_abs, c.shape)
    assert pipeline.to_bytes(back) == blob
    return blob


_shapes = st.lists(st.integers(1, 9), min_size=1, max_size=4).filter(
    lambda s: int(np.prod(s)) <= 1500
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(PREDS),
    _shapes,
    st.floats(-6, 1),
    st.integers(0, 2**32 - 1),
)
def test_to_bytes_from_bytes_roundtrip_property(pred, shape, log_eb, seed):
    rng = np.random.default_rng(seed)
    d = np.cumsum(rng.normal(size=shape), axis=-1) * 10.0 ** rng.uniform(-3, 6)
    d -= d.mean()  # |x| <= range: Lorenzo codes stay within int32 at eb >= 1e-6 x range
    vrange = float(d.max() - d.min()) or 1.0
    c = pipeline.compress(d, pred, 10.0**log_eb * vrange)
    _assert_roundtrip(c)


def test_blob_with_raw_body():
    """zlib does not shrink a high-entropy bitstream: the body is stored raw."""
    d = np.random.default_rng(0).normal(size=(30, 30))
    c = pipeline.compress(d, "lorenzo", 0.01)
    assert len(zlib.compress(c.payload)) >= len(c.payload)
    assert c.body is c.payload
    blob = _assert_roundtrip(c)
    assert not blob[2] & _ZLIB_FLAG
    assert blob.endswith(c.payload)


def test_blob_with_zlib_body():
    d = sci_data.generate("SCALE", "PRES", "test")
    c = pipeline.compress(d, "lorenzo", 0.1 * float(d.max() - d.min()))
    blob = _assert_roundtrip(c)
    assert blob[2] & _ZLIB_FLAG
    assert blob.endswith(c.body) and c.body == zlib.compress(c.payload)


def test_blob_with_single_symbol():
    c = pipeline.compress(np.zeros((5, 7)), "lorenzo", 0.1)
    assert c.code.symbols.tolist() == [0]
    _assert_roundtrip(c)


@pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 1, 1, 1)])
def test_blob_with_empty_stream(shape):
    """Interpolation of a single point: every point is an anchor."""
    c = pipeline.compress(np.full(shape, 3.5), "interp", 0.1)
    assert c.codes.size == 0 and c.payload == b""
    blob = _assert_roundtrip(c)
    assert len(blob) == pipeline.HEADER_BYTES + 4


def test_to_bytes_rejects_codes_outside_int32():
    """A 1e6-range field at eb = 1e-5 has Lorenzo codes near 1e10: the
    4-byte codebook cannot hold them, and there is no outlier channel."""
    d = np.random.default_rng(0).normal(size=(8, 24, 24))
    d = (d - d.min()) / (d.max() - d.min()) * 1e6
    c = pipeline.compress(d, "lorenzo", 1e-5)
    assert np.abs(c.codes).max() > 2**31
    with pytest.raises(ValueError, match="int32"):
        pipeline.to_bytes(c)


def test_to_bytes_rejects_more_than_four_dims():
    c = pipeline.compress(np.ones((2, 1, 2, 1, 2)), "lorenzo", 0.1)
    with pytest.raises(ValueError):
        pipeline.to_bytes(c)


def _blob(zipped: bool) -> bytes:
    d = sci_data.generate("SCALE", "PRES", "test")
    ebr = 0.1 if zipped else 1e-3
    blob = pipeline.to_bytes(pipeline.compress(d, "lorenzo", ebr * float(d.max() - d.min())))
    assert bool(blob[2] & _ZLIB_FLAG) == zipped
    return blob


def _patch(blob, offset, fmt, *values):
    b = bytearray(blob)
    struct.pack_into(fmt, b, offset, *values)
    return bytes(b)


def _rezip(blob, edit):
    """The zlib blob with a valid zlib body over ``edit(bitstream)``."""
    c = pipeline.from_bytes(blob)
    body = zlib.compress(edit(c.payload))
    return blob[: len(blob) - len(c.body)] + body


# header: magic @0, predictor id @2, eb @3, symbol count @11, dims @15;
# codebook entries (int32 symbol, uint8 length) from byte 32
_MUTATIONS = {
    "bad magic": lambda b: b"SZ" + b[2:],
    "truncated header": lambda b: b[:31],
    "truncated codebook": lambda b: b[:40],
    "truncated body": lambda b: b[:-1],
    "trailing byte": lambda b: b + b"\0",
    "unknown predictor": lambda b: _patch(b, 2, "<B", (b[2] & _ZLIB_FLAG) | 3),
    "zero dims": lambda b: _patch(b, 15, "<4I", 0, 0, 0, 0),
    "dim after padding": lambda b: _patch(b, 15, "<4I", 12, 0, 24, 24),
    "symbol count too large": lambda b: _patch(b, 11, "<I", 2**32 - 1),
    "code length 0": lambda b: _patch(b, 36, "<B", 0),
    "code length 58": lambda b: _patch(b, 36, "<B", 58),
    "oversubscribed lengths": lambda b: _patch(_patch(b, 36, "<B", 1), 41, "<B", 1),
    "unsorted symbols": lambda b: _patch(b, 32, "<i", 2**31 - 1),
    "zero eb": lambda b: _patch(b, 3, "<d", 0.0),
    "nan eb": lambda b: _patch(b, 3, "<d", float("nan")),
}


@pytest.mark.parametrize("zipped", [False, True], ids=["raw", "zlib"])
@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_from_bytes_rejects_malformed_blob(mutation, zipped):
    blob = _blob(zipped)
    pipeline.from_bytes(blob)  # the unmutated blob parses
    with pytest.raises(ValueError):
        pipeline.from_bytes(_MUTATIONS[mutation](blob))


def test_from_bytes_rejects_corrupt_zlib_body():
    blob = bytearray(_blob(zipped=True))
    blob[-3] ^= 0xFF  # inside the adler32 trailer
    with pytest.raises(ValueError, match="zlib"):
        pipeline.from_bytes(bytes(blob))


@pytest.mark.parametrize(
    "edit,error",
    [
        (lambda p: p[:-1], "ends before"),
        (lambda p: p[:-40], "ends before"),
        (lambda p: p + b"\0", "bytes after"),
    ],
    ids=["short 1", "short 40", "long 1"],
)
def test_from_bytes_checks_inflated_bitstream_length(edit, error):
    with pytest.raises(ValueError, match=error):
        pipeline.from_bytes(_rezip(_blob(zipped=True), edit))


@pytest.mark.parametrize("shape,bit", [((4, 4), 11), ((3, 5), 0), ((3, 5), 14)])
def test_from_bytes_rejects_undecodable_bit_pattern(shape, bit):
    """A single-symbol code has only the codeword ``0``: a set bit starts
    no codeword (the decoder's top limit is below 2**64), even where the
    stream's length would still fit."""
    c = pipeline.compress(np.zeros(shape), "lorenzo", 0.1)
    blob = bytearray(pipeline.to_bytes(c))
    assert not blob[2] & _ZLIB_FLAG and blob.endswith(c.payload) and not any(c.payload)
    blob[len(blob) - len(c.payload) + bit // 8] |= 0x80 >> (bit % 8)
    with pytest.raises(ValueError, match="ends before"):
        pipeline.from_bytes(bytes(blob))
