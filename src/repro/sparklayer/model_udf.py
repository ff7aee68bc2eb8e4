"""Per-partition ratio-quality modeling and ground-truth compression,
as ``per_chunk`` transformations over chunk DataFrames.

``estimate_metrics`` runs the paper's model (one-time 1% sample per chunk ×
predictor, then per-error-bound estimates); ``measure_metrics`` runs the
real SZ3-lite compressor (the trial-and-error unit of work) and measures
ratio + post-hoc quality. Both emit one row per (chunk, predictor, eb) with
identical schema so they join/diff in Spark SQL; wall-clock columns feed the
overhead study (Fig. 9 / Table E1).
"""
from __future__ import annotations

import time
from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..compressor import pipeline
from ..core.model import RatioQualityModel
from ..core.sampling import sample_error_report
from .chunks import per_chunk

__all__ = ["METRIC_SCHEMA", "estimate_metrics", "measure_metrics", "sample_reports"]

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


def estimate_metrics(
    chunks: DataFrame,
    predictors: Sequence[str],
    ebs_rel: Sequence[float],
    sample_rate: float = 0.01,
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
            t0 = time.perf_counter()
            model = RatioQualityModel(arr, p, sample_rate=sample_rate, seed=seed)
            t_build = time.perf_counter() - t0
            for i, ebr in enumerate(ebs):
                t0 = time.perf_counter()
                est = model.estimate(model.abs_bound(ebr))
                dt = time.perf_counter() - t0 + (t_build if i == 0 else 0.0)
                yield _metric_row(row, arr, p, "est", ebr, est["eb_abs"], est, dt)

    return per_chunk(chunks, fn, METRIC_SCHEMA)


def measure_metrics(
    chunks: DataFrame,
    predictors: Sequence[str],
    ebs_rel: Sequence[float],
    with_ssim: bool = True,
) -> DataFrame:
    """Ground truth per (chunk, predictor, error bound): full compression +
    decompression + analysis, i.e. one trial of the trial-and-error loop."""
    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def fn(row, arr):
        d = np.asarray(arr, dtype=np.float64)
        vrange = float(d.max() - d.min())
        ssim_ok = with_ssim and arr.ndim in (2, 3)
        for p in preds:
            for ebr in ebs:
                eb_abs = ebr * vrange
                t0 = time.perf_counter()
                m = pipeline.measure(arr, p, eb_abs, with_ssim=ssim_ok)
                dt = time.perf_counter() - t0
                yield _metric_row(row, arr, p, "meas", ebr, eb_abs, m, dt)

    return per_chunk(chunks, fn, METRIC_SCHEMA)


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


def sample_reports(
    chunks: DataFrame, predictor: str, rate: float = 0.01, seed: int = 0
) -> DataFrame:
    """Table II "Sample Err." rows: fidelity of the sampled prediction-error
    distribution per chunk (std deviation relative to value range)."""

    def fn(row, arr):
        rep = sample_error_report(arr, predictor, rate=rate, seed=seed)
        return [
            dict(
                dataset=row["dataset"],
                field=row["field"],
                chunk_id=int(row["chunk_id"]),
                predictor=predictor,
                **rep,
            )
        ]

    return per_chunk(chunks, fn, SAMPLE_SCHEMA)
