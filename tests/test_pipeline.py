"""End-to-end SZ3-lite pipeline tests (compression substrate, Fig. 2)."""
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sci_data
from repro.compressor import huffman, pipeline, rle
from repro.compressor.predictors import PREDICTORS

PREDS = ["lorenzo", "interp", "regression"]
STAGE_SECONDS = ("predict_s", "huffman_s", "lossless_s", "decompress_s", "judge_s")


@pytest.mark.parametrize("pred", PREDS)
@pytest.mark.parametrize("ds,fld", [("SCALE", "PRES"), ("Nyx", "dark_matter"), ("Brown", "pressure")])
def test_roundtrip_error_bounded(pred, ds, fld):
    d = sci_data.generate(ds, fld, "test")
    rng = float(d.max() - d.min())
    eb = 1e-3 * rng
    c = pipeline.compress(d, pred, eb)
    rec = pipeline.decompress(c)
    assert np.max(np.abs(rec - np.asarray(d, np.float64))) <= eb + 1e-5 * rng


@pytest.mark.parametrize("pred", PREDS)
def test_measure_mse_within_squared_bound(pred):
    """A reconstruction within eb point-wise has MSE <= eb²: the guarantee
    the dump's constant-rank bound relies on."""
    d = sci_data.generate("Nyx", "dark_matter", "test")
    eb = 1e-3 * float(d.max() - d.min())
    m = pipeline.measure(d, pred, eb, with_ssim=False)
    assert 0 < m["mse"] <= m["max_err"] ** 2 <= eb**2


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


@pytest.mark.parametrize("with_ssim", [False, True])
@pytest.mark.parametrize("pred", PREDS)
def test_trials_match_measure_at_each_bound(pred, with_ssim):
    """``trials`` over a sweep yields, bound by bound and in order, exactly
    what ``measure`` gives at that bound on its own: one check and one
    reference per field change no result (the stage seconds aside)."""
    d = sci_data.generate("Hurricane", "TC", "test")
    ebs = [r * float(d.max() - d.min()) for r in (1e-1, 1e-4, 1e-2, 1e-3)]
    got = list(pipeline.trials(d, pred, ebs, with_ssim))
    want = [pipeline.measure(d, pred, eb, with_ssim) for eb in ebs]
    assert [m["eb_abs"] for m in got] == ebs
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        results = [k for k in g if k not in STAGE_SECONDS]
        assert all(g[k] == w[k] or (g[k] != g[k] and w[k] != w[k]) for k in results), (g, w)


@pytest.mark.parametrize("pred", PREDS)
def test_trials_and_measure_time_each_stage(pred):
    """Every trial carries the seconds of its five stages, finite and >= 0;
    ``compress`` records the first two on the field."""
    d = sci_data.generate("SCALE", "PRES", "test")
    eb = 1e-3 * float(d.max() - d.min())
    for m in [*pipeline.trials(d, pred, [eb, 10 * eb]), pipeline.measure(d, pred, eb)]:
        assert all(math.isfinite(m[k]) and m[k] >= 0 for k in STAGE_SECONDS), m
    c = pipeline.compress(d, pred, eb)
    assert math.isfinite(c.predict_s) and math.isfinite(c.huffman_s)
    assert min(c.predict_s, c.huffman_s) >= 0


def test_trials_check_the_field_before_the_first_trial():
    with pytest.raises(ValueError, match="NaN"):
        next(pipeline.trials(np.array([1.0, np.nan]), "lorenzo", [0.1]))
    with pytest.raises(ValueError, match="error bound"):
        next(pipeline.trials(np.ones(4), "lorenzo", [0.0]))


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
    assert len(c.payload) == -(-c.code.total_bits // 8)
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

_LOSSLESS_FLAG = 0x80


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


_INT32 = np.iinfo(np.int32)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(PREDS),
    _shapes,
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([k / 4 for k in range(-48, 5)]),  # log10(eb / range), uniform
    st.integers(0, 2**32 - 1),
)
def test_to_bytes_from_bytes_roundtrip_property(pred, shape, dtype, log_eb, seed):
    """1-4D shapes with axes of 1-9 points (length-1 axes and fields under 64
    points included), float32 or float64, eb from 1e-12 to 10 x range: the
    blob round-trips bit for bit and its read-back stays within eb wherever
    the codes fit the codebook's int32. A code outside int32, and float64
    interp anchors that float32 misses by more than eb, raise instead."""
    rng = np.random.default_rng(seed)
    d = np.cumsum(rng.normal(size=shape), axis=-1) * 10.0 ** rng.uniform(-3, 6)
    d = (d - d.mean()).astype(dtype)
    vrange = float(d.max() - d.min()) or 1.0
    eb = 10.0**log_eb * vrange
    try:
        c = pipeline.compress(d, pred, eb)
    except ValueError as exc:
        assert pred == "interp" and dtype is np.float64 and "anchors" in str(exc), exc
        return
    if c.codes.size and not _INT32.min <= c.codes.min() <= c.codes.max() <= _INT32.max:
        with pytest.raises(ValueError, match="int32"):
            pipeline.to_bytes(c)
        return
    rec = pipeline.decompress(pipeline.from_bytes(_assert_roundtrip(c)))
    assert np.abs(rec - d.astype(np.float64)).max() <= eb * (1 + 1e-9)


def test_interp_rejects_float64_anchors_that_float32_misses():
    """Interp stores its anchors as float32: a float64 field whose anchors
    lose more than eb to float32 rounding raises; the same values as
    float32, whose anchors are exact, read back within eb."""
    d = np.linspace(0.1, 0.9, 9)
    with pytest.raises(ValueError, match="anchors"):
        pipeline.compress(d, "interp", 1e-10)
    d32 = d.astype(np.float32)
    rec = pipeline.decompress(pipeline.from_bytes(pipeline.to_bytes(pipeline.compress(d32, "interp", 1e-10))))
    assert np.abs(rec - d32.astype(np.float64)).max() <= 1e-10 * (1 + 1e-9)


def test_blob_with_raw_body():
    """Zstandard does not shrink a high-entropy bitstream: the body is
    stored raw."""
    d = np.random.default_rng(0).normal(size=(30, 30))
    c = pipeline.compress(d, "lorenzo", 0.01)
    assert len(rle.lossless_bytes(c.payload)) >= len(c.payload)
    assert c.body is c.payload
    blob = _assert_roundtrip(c)
    assert not blob[2] & _LOSSLESS_FLAG
    assert blob.endswith(c.payload)


def test_blob_with_zstd_body():
    """A compressible bitstream is stored as one Zstandard frame (magic
    ``28 B5 2F FD``) that declares the bitstream's size."""
    d = sci_data.generate("SCALE", "PRES", "test")
    c = pipeline.compress(d, "lorenzo", 0.1 * float(d.max() - d.min()))
    blob = _assert_roundtrip(c)
    assert blob[2] & _LOSSLESS_FLAG
    assert blob.endswith(c.body) and c.body == rle.lossless_bytes(c.payload)
    assert c.body[:4] == bytes.fromhex("28b52ffd") and len(c.body) < len(c.payload)
    assert rle.inflate(c.body, len(c.payload)) == c.payload


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


def test_overhead_bytes_charges_the_stored_codebook_entry():
    """Each distinct code costs its codebook entry, int32 symbol + uint8
    code length, as ``to_bytes`` writes it."""
    assert pipeline.overhead_bytes(10, 12) == pipeline.HEADER_BYTES + 10 * 5 + 12
    c = pipeline.compress(sci_data.generate("SCALE", "PRES", "test"), "lorenzo", 1.0)
    blob = pipeline.to_bytes(c)
    assert len(blob) - len(c.body) == pipeline.overhead_bytes(len(c.code.symbols), c.side_bytes)


def test_from_bytes_rejects_codebook_symbol_the_body_never_uses():
    """The encoder lists only the codes it counted: a codebook with one
    more symbol than the bitstream decodes to is refused, not read back
    with a zero count."""
    c = pipeline.compress(np.zeros((4, 4)), "lorenzo", 0.1)
    assert c.code.symbols.tolist() == [0]
    code = huffman.build(np.array([0, 0, 0, 5]))  # lengths 1, 1: valid
    padded = dataclasses.replace(c, code=code, payload=code.encode(c.codes))
    with pytest.raises(ValueError, match="never uses"):
        pipeline.from_bytes(pipeline.to_bytes(padded))
    used = dataclasses.replace(c, code=code, payload=code.encode(np.r_[c.codes[:-1], 5]))
    back = pipeline.from_bytes(pipeline.to_bytes(used))
    assert back.code.counts.tolist() == [15, 1]


def _blob(zipped: bool) -> bytes:
    d = sci_data.generate("SCALE", "PRES", "test")
    ebr = 0.1 if zipped else 1e-3
    blob = pipeline.to_bytes(pipeline.compress(d, "lorenzo", ebr * float(d.max() - d.min())))
    assert bool(blob[2] & _LOSSLESS_FLAG) == zipped
    return blob


def _patch(blob, offset, fmt, *values):
    b = bytearray(blob)
    struct.pack_into(fmt, b, offset, *values)
    return bytes(b)


def _rezip(blob, edit):
    """The compressed-body blob with a valid Zstandard body over
    ``edit(bitstream)``."""
    c = pipeline.from_bytes(blob)
    body = rle.lossless_bytes(edit(c.payload))
    return blob[: len(blob) - len(c.body)] + body


# header: magic @0, predictor id @2, eb @3, symbol count @11, dims @15;
# codebook entries (int32 symbol, uint8 length) from byte 32
_MUTATIONS = {
    "bad magic": lambda b: b"SZ" + b[2:],
    "truncated header": lambda b: b[:31],
    "truncated codebook": lambda b: b[:40],
    "truncated body": lambda b: b[:-1],
    "trailing byte": lambda b: b + b"\0",
    "unknown predictor": lambda b: _patch(b, 2, "<B", (b[2] & _LOSSLESS_FLAG) | 3),
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


# "zlib" names the case with a lossless-coded (now Zstandard) body; the ids
# are kept so that each case keeps its name across the codec change
@pytest.mark.parametrize("zipped", [False, True], ids=["raw", "zlib"])
@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_from_bytes_rejects_malformed_blob(mutation, zipped):
    blob = _blob(zipped)
    pipeline.from_bytes(blob)  # the unmutated blob parses
    with pytest.raises(ValueError):
        pipeline.from_bytes(_MUTATIONS[mutation](blob))


def _frame_edits(body: bytes) -> dict:
    """Damaged copies of one Zstandard frame (RFC 8878 §3.1.1) → the error
    each must raise."""
    fhd = body[4]
    assert fhd >> 6 or fhd >> 5 & 1  # the encoder writes Frame_Content_Size
    no_fcs = bytearray(body)
    no_fcs[4] = fhd & 0x1F  # no size field, and not single-segment
    return {
        "bad magic": (b"\0" + body[1:], "corrupt"),
        "scrambled block": (body[:12] + body[:11:-1], "corrupt"),
        "truncated": (body[:-1], "truncated"),
        "trailing byte": (body + b"\0", "followed by bytes"),
        "trailing frame": (body + rle.lossless_bytes(b""), "followed by bytes"),
        "no content size": (bytes(no_fcs), "Frame_Content_Size"),
    }


@pytest.mark.parametrize(
    "edit",
    ["bad magic", "scrambled block", "truncated", "trailing byte", "trailing frame", "no content size"],
)
def test_from_bytes_rejects_corrupt_zstd_body(edit):
    """A body that is not exactly one whole, well-formed Zstandard frame
    declaring its content size is refused, before any Huffman decoding."""
    blob = _blob(zipped=True)
    c = pipeline.from_bytes(blob)
    body, error = _frame_edits(c.body)[edit]
    with pytest.raises(ValueError, match=error):
        pipeline.from_bytes(blob[: len(blob) - len(c.body)] + body)


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
    assert not blob[2] & _LOSSLESS_FLAG and blob.endswith(c.payload) and not any(c.payload)
    blob[len(blob) - len(c.payload) + bit // 8] |= 0x80 >> (bit % 8)
    with pytest.raises(ValueError, match="ends before"):
        pipeline.from_bytes(bytes(blob))
