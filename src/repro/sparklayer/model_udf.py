"""Per-partition ratio-quality modeling and ground-truth compression,
as ``per_chunk`` transformations over chunk DataFrames.

Three module-level generators turn one chunk and one predictor into rows:
``_estimate_rows`` runs the paper's model (one-time 1% sample, then
per-error-bound estimates), ``_measure_rows`` runs the real SZ3-lite
compressor (the trial-and-error unit of work) and measures ratio + post-hoc
quality, and ``_sample_row`` reports the fidelity of the sampled
prediction-error distribution. ``estimate_metrics``, ``measure_metrics`` and
``sample_reports`` each run one of them over every chunk; the first two share
``METRIC_SCHEMA``, whose wall-clock ``seconds`` feed the overhead study
(Fig. 9 / Table E1). ``table2_metrics`` runs all three in a single executor
pass and emits one wide row per (chunk, predictor, error bound) holding the
estimate, the measurement and the chunk's sample report, so the Table II job
deserializes each chunk once and needs no join: its Spark SQL is one
``groupBy``.
"""
from __future__ import annotations

import time
from typing import Iterator, Sequence

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..compressor import pipeline
from ..core.model import RatioQualityModel
from ..core.sampling import sample_error_report
from .chunks import per_chunk

__all__ = [
    "METRIC_SCHEMA",
    "TABLE2_SCHEMA",
    "estimate_metrics",
    "measure_metrics",
    "sample_reports",
    "table2_metrics",
]

METRIC_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType(), False),
        T.StructField("field", T.StringType(), False),
        T.StructField("chunk_id", T.IntegerType(), False),
        T.StructField("predictor", T.StringType(), False),
        T.StructField("kind", T.StringType(), False),  # "est" | "meas"
        T.StructField("eb_rel", T.DoubleType(), False),
        T.StructField("eb_abs", T.DoubleType(), False),
        T.StructField("n_points", T.LongType(), False),
        T.StructField("bitrate_huff", T.DoubleType(), False),
        T.StructField("bitrate_ll", T.DoubleType(), False),
        T.StructField("p0", T.DoubleType(), False),
        T.StructField("psnr", T.DoubleType(), False),
        T.StructField("ssim", T.DoubleType(), True),
        T.StructField("seconds", T.DoubleType(), False),
    ]
)

SAMPLE_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType(), False),
        T.StructField("field", T.StringType(), False),
        T.StructField("chunk_id", T.IntegerType(), False),
        T.StructField("predictor", T.StringType(), False),
        T.StructField("std_full", T.DoubleType(), False),
        T.StructField("std_sample", T.DoubleType(), False),
        T.StructField("sample_err", T.DoubleType(), False),
    ]
)

_KEYS = ("dataset", "field", "chunk_id", "predictor", "eb_rel")
#: ``e_``/``m_`` column suffix -> metric of the estimate/measurement row
_METRICS = {"huff": "bitrate_huff", "ll": "bitrate_ll", "psnr": "psnr", "ssim": "ssim"}

#: One Table II row per (chunk, predictor, error bound): the model's estimate
#: (``e_*``) and the compressor's measurement (``m_*``) side by side, plus the
#: chunk's sample report. ``m_ssim`` is null where SSIM is not measured
#: (1D/4D chunks: Arrow turns the NaN into a null).
TABLE2_SCHEMA = T.StructType(
    [METRIC_SCHEMA[k] for k in _KEYS]
    + [
        T.StructField(f"{side}_{col}", T.DoubleType(), f"{side}_{col}" == "m_ssim")
        for side in "em"
        for col in _METRICS
    ]
    + [SAMPLE_SCHEMA["sample_err"]]
)


def _metric_row(row, arr, predictor, kind, eb_rel, eb_abs, m, seconds) -> dict:
    return dict(
        dataset=row["dataset"],
        field=row["field"],
        chunk_id=int(row["chunk_id"]),
        predictor=predictor,
        kind=kind,
        eb_rel=eb_rel,
        eb_abs=eb_abs,
        n_points=int(arr.size),
        bitrate_huff=m["bitrate_huff"],
        bitrate_ll=m["bitrate_ll"],
        p0=m["p0"],
        psnr=m["psnr"],
        ssim=m["ssim"],
        seconds=seconds,
    )


def _estimate_rows(
    row, arr: np.ndarray, predictor: str, ebs_rel: Sequence[float], seed: int
) -> Iterator[dict]:
    """One chunk's model rows for ``predictor``, one per error bound
    (``seconds`` as in ``estimate_metrics``)."""
    t0 = time.perf_counter()
    model = RatioQualityModel(arr, predictor, seed=seed)
    t_build = time.perf_counter() - t0
    for i, ebr in enumerate(ebs_rel):
        t0 = time.perf_counter()
        est = model.estimate(model.abs_bound(ebr))
        dt = time.perf_counter() - t0 + (t_build if i == 0 else 0.0)
        yield _metric_row(row, arr, predictor, "est", ebr, est["eb_abs"], est, dt)


def _measure_rows(
    row, arr: np.ndarray, predictor: str, ebs_rel: Sequence[float]
) -> Iterator[dict]:
    """One chunk's ground-truth rows for ``predictor``, one trial per error
    bound; SSIM is measured for 2D/3D chunks only, as in the paper's
    Table II."""
    d = np.asarray(arr, dtype=np.float64)
    vrange = float(d.max() - d.min())
    for ebr in ebs_rel:
        eb_abs = ebr * vrange
        t0 = time.perf_counter()
        m = pipeline.measure(arr, predictor, eb_abs, with_ssim=arr.ndim in (2, 3))
        dt = time.perf_counter() - t0
        yield _metric_row(row, arr, predictor, "meas", ebr, eb_abs, m, dt)


def _sample_row(row, arr: np.ndarray, predictor: str, rate: float, seed: int) -> dict:
    """One chunk's Table II "Sample Err." report for ``predictor``."""
    return dict(
        dataset=row["dataset"],
        field=row["field"],
        chunk_id=int(row["chunk_id"]),
        predictor=predictor,
        **sample_error_report(arr, predictor, rate=rate, seed=seed),
    )


def estimate_metrics(
    chunks: DataFrame,
    predictors: Sequence[str],
    ebs_rel: Sequence[float],
    seed: int = 0,
) -> DataFrame:
    """Model estimates per (chunk, predictor, error bound).

    ``seconds`` on each row is that estimate's marginal cost; the one-time
    sampling cost is amortized into the first row of each (chunk, predictor)
    group — summing ``seconds`` over a group gives the full model cost, the
    quantity compared against trial-and-error in the overhead study.
    """
    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def fn(row, arr):
        for p in preds:
            yield from _estimate_rows(row, arr, p, ebs, seed)

    return per_chunk(chunks, fn, METRIC_SCHEMA)


def measure_metrics(
    chunks: DataFrame, predictors: Sequence[str], ebs_rel: Sequence[float]
) -> DataFrame:
    """Ground truth per (chunk, predictor, error bound): full compression +
    decompression + analysis, i.e. one trial of the trial-and-error loop."""
    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def fn(row, arr):
        for p in preds:
            yield from _measure_rows(row, arr, p, ebs)

    return per_chunk(chunks, fn, METRIC_SCHEMA)


def sample_reports(
    chunks: DataFrame, predictor: str, rate: float = 0.01, seed: int = 0
) -> DataFrame:
    """Table II "Sample Err." rows: fidelity of the sampled prediction-error
    distribution per chunk (std deviation relative to value range)."""
    return per_chunk(
        chunks, lambda row, arr: [_sample_row(row, arr, predictor, rate, seed)], SAMPLE_SCHEMA
    )


def table2_metrics(
    chunks: DataFrame,
    predictors: Sequence[str],
    ebs_rel: Sequence[float],
    seed: int = 0,
) -> DataFrame:
    """``estimate_metrics``, ``measure_metrics`` and ``sample_reports`` in
    one executor pass, as ``TABLE2_SCHEMA`` rows.

    Each row pairs the estimate and the measurement of one (chunk,
    predictor, error bound) and repeats the chunk's ``sample_err``; the
    model and the sample report share the 1% rate and ``seed``.
    """
    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def fn(row, arr):
        for p in preds:
            sample_err = sample_error_report(arr, p, seed=seed)["sample_err"]
            estimates = _estimate_rows(row, arr, p, ebs, seed)
            for e, m in zip(estimates, _measure_rows(row, arr, p, ebs)):
                out = {k: e[k] for k in _KEYS}
                for col, metric in _METRICS.items():
                    out[f"e_{col}"], out[f"m_{col}"] = e[metric], m[metric]
                yield out | {"sample_err": sample_err}

    return per_chunk(chunks, fn, TABLE2_SCHEMA)
