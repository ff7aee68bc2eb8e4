"""Driver-side replays that split one program call into spans per layer.

The Spark workloads run the compressor and the model inside executors, where
the benchmark cannot see them. The traced run therefore repeats the same
per-chunk work on the driver, one public call at a time, so that ``kernel``,
``analysis`` and ``model`` time can be told apart. The replay is never part
of a timed end-to-end number.
"""
from __future__ import annotations

import numpy as np

from repro import analysis
from repro.compressor import huffman, pipeline, rle
from repro.compressor.predictors import get_predictor
from repro.core.model import RatioQualityModel

#: Per-chunk counts summed over every compression the replay makes. The byte
#: counts are computed from sizes (points x 4 B in, payload bytes out), not
#: measured traffic: every chunk fits in the last-level cache.
KERNEL_COUNTS = ("points", "n_symbols", "payload_bytes", "bytes_in")


def new_counts() -> dict[str, int]:
    return {k: 0 for k in KERNEL_COUNTS} | {"sample_points": 0}


def compress(tr, counts, arr: np.ndarray, predictor: str, eb: float):
    """``pipeline.compress`` + ``pipeline.decompress``, one span per stage
    → (CompressedField, reconstruction)."""
    pred = get_predictor(predictor)
    with tr.span("kernel.predict"):
        codes, extras = pred.compress(arr, eb)
    with tr.span("kernel.huff_build"):
        code = huffman.build(codes)
    with tr.span("kernel.huff_encode"):
        payload = code.encode(codes)
    with tr.span("kernel.lossless"):
        rle.lossless_bytes(payload)
    c = pipeline.CompressedField(
        predictor=predictor,
        eb_abs=float(eb),
        shape=tuple(arr.shape),
        codes=codes,
        extras=extras,
        payload=payload,
        code=code,
        side_bytes=pred.side_bytes(tuple(arr.shape)),
    )
    with tr.span("kernel.decompress"):
        rec = pipeline.decompress(c)
    counts["points"] += int(arr.size)
    counts["bytes_in"] += int(arr.size) * 4
    counts["n_symbols"] += int(len(code.symbols))
    counts["payload_bytes"] += len(payload)
    return c, rec


def measure(tr, counts, arr: np.ndarray, predictor: str, eb: float, with_ssim: bool):
    """``pipeline.measure`` split into kernel and analysis spans → max error."""
    _, rec = compress(tr, counts, arr, predictor, eb)
    with tr.span("analysis.psnr"):
        analysis.psnr(arr, rec)
    if with_ssim:
        with tr.span("analysis.ssim"):
            analysis.ssim_global(arr, rec)
    return float(np.max(np.abs(np.asarray(arr, np.float64) - rec)))


def build_model(tr, counts, arr: np.ndarray, predictor: str, seed: int) -> RatioQualityModel:
    with tr.span("model.build"):
        model = RatioQualityModel(arr, predictor, sample_rate=0.01, seed=seed)
    counts["sample_points"] += int(model.errors.size)
    return model


def as_metrics(counts) -> dict[str, int]:
    return {f"kernel.{k}": counts[k] for k in KERNEL_COUNTS} | {
        "model.sample_points": counts["sample_points"]
    }
