"""Per-partition ratio-quality modeling and ground-truth compression,
as ``per_chunk`` transformations over chunk RDDs.

Two streams turn one chunk and one predictor into results:
``_estimate_rows`` builds the paper's model (one-time 1% sample, then one
``curve`` sweep over the error bounds) and ``pipeline.trials`` runs the real
SZ3-lite compressor (the trial-and-error unit of work), measures ratio +
post-hoc quality and holds each trial to the hard bound: a trial over it
fails the job, its chunk named by ``per_chunk``. ``table2_metrics`` runs
both, the trials at the model curve's own absolute bounds, and the chunk's
sample report (read from the model's own sample) in a single executor
pass, one Spark job of one stage, and collects one wide row per (chunk,
predictor, error bound) into a pandas frame: the estimate and the
measurement side by side, with the seconds of the model's two steps and of
the trial's compression stages, so the Table II job deserializes each chunk
once, needs no join and aggregates Tables II and E1 on the driver.

``estimate_metrics``, ``measure_metrics`` and ``sample_reports`` each run one
of those streams on its own when called, collect its row dicts and return
them as a Spark DataFrame (``_frame``: ``createDataFrame`` of a pandas
frame), its columns in the order the rows give them. A pass with no rows
raises PySpark's ``CANNOT_INFER_EMPTY_SCHEMA``; no caller makes one, as
every chunk yields rows. A metric row's wall-clock ``seconds`` summed over
a (chunk, predictor) group are the executor time of the model or of the
trials (a trial's is the sum of its stage seconds). No job calls these
three; the benchmark's traced Table II pass times each stream with them.

pandas is imported where a frame is built, never with the module: every
Python worker imports this module (``per_chunk`` lives in this package),
and pandas would add ~0.4 s to each newly forked worker's first task.
"""
from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np
from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession

from ..analysis import value_range
from ..compressor import pipeline
from ..config import SSIM_NDIMS
from ..core.model import RatioQualityModel
from ..core.sampling import sample_error_report, sample_fidelity
from .chunks import per_chunk

if TYPE_CHECKING:
    import pandas as pd

__all__ = [
    "estimate_metrics",
    "measure_metrics",
    "sample_reports",
    "table2_metrics",
]

_KEYS = ("dataset", "field", "chunk_id", "predictor", "eb_rel")

#: ``e_``/``m_`` column suffix -> metric of the estimate/measurement row
_METRICS = {"huff": "bitrate_huff", "ll": "bitrate_ll", "psnr": "psnr", "ssim": "ssim"}

#: Compression stages of a trial (``pipeline.trials``) whose seconds Table
#: E1 charges to the trial-and-error loop, then all five of its stages.
_TAE_STAGES = ("predict_s", "huffman_s", "lossless_s")
_STAGES = (*_TAE_STAGES, "decompress_s", "judge_s")

#: Columns of a ``table2_metrics`` row: the keys, the model's estimate
#: (``e_*``) and the compressor's measurement (``m_*``), the chunk's sample
#: report, then the seconds of the model's build and ``curve`` and of the
#: trial's compression stages.
_TABLE2_COLUMNS = [
    *_KEYS,
    *(f"{side}_{col}" for side in "em" for col in _METRICS),
    "sample_err",
    "e_build_s",
    "e_curve_s",
    *(f"m_{stage}" for stage in _TAE_STAGES),
]


def _frame(rows: RDD) -> DataFrame:
    """Run the pass: collect its row dicts → Spark DataFrame with the rows'
    columns in their key order (an int reads as bigint, a NaN as NaN).
    Raises PySpark's ``CANNOT_INFER_EMPTY_SCHEMA`` for a pass with no rows,
    which no caller makes: every chunk yields rows."""
    import pandas as pd

    return SparkSession.builder.getOrCreate().createDataFrame(pd.DataFrame(rows.collect()))


def _metric_row(row, arr, predictor, kind, eb_rel, m, seconds) -> dict:
    return dict(
        dataset=row["dataset"],
        field=row["field"],
        chunk_id=int(row["chunk_id"]),
        predictor=predictor,
        kind=kind,
        eb_rel=eb_rel,
        eb_abs=m["eb_abs"],
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
) -> tuple[RatioQualityModel, list[dict], float, float]:
    """One chunk's model for ``predictor``, its rows, one per error bound,
    from one ``curve`` sweep (``seconds`` as in ``estimate_metrics``), and
    the seconds of the model's build and of the sweep."""
    t0 = time.perf_counter()
    model = RatioQualityModel(arr, predictor, seed=seed)
    t1 = time.perf_counter()
    curve = model.curve(model.abs_bound(np.asarray(ebs_rel)))
    build_s, curve_s = t1 - t0, time.perf_counter() - t1
    rows = []
    for i, ebr in enumerate(ebs_rel):
        est = {k: v[i] for k, v in curve.items()}
        seconds = build_s + curve_s if i == 0 else 0.0
        rows.append(_metric_row(row, arr, predictor, "est", ebr, est, seconds))
    return model, rows, build_s, curve_s


def estimate_metrics(
    chunks: RDD,
    predictors: Sequence[str],
    ebs_rel: Sequence[float],
    seed: int = 0,
) -> DataFrame:
    """Model estimates per (chunk, predictor, error bound).

    The model's build (the one-time 1% sample) and its one ``curve`` sweep
    are timed together: the first row of each (chunk, predictor) group
    holds those ``seconds`` and the others 0.0, so a group's sum is the
    model's full cost on that chunk.
    """
    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def fn(row, arr):
        for p in preds:
            yield from _estimate_rows(row, arr, p, ebs, seed)[1]

    return _frame(per_chunk(chunks, fn))


def measure_metrics(
    chunks: RDD, predictors: Sequence[str], ebs_rel: Sequence[float]
) -> DataFrame:
    """Ground truth per (chunk, predictor, error bound): full compression +
    decompression + analysis, i.e. one trial of the trial-and-error loop
    (SSIM for ``config.SSIM_NDIMS`` chunks only, as in the paper's Table
    II), its ``seconds`` the sum of the trial's stage seconds."""
    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def fn(row, arr):
        vrange = value_range(arr)
        for p in preds:
            trials = pipeline.trials(arr, p, [e * vrange for e in ebs], arr.ndim in SSIM_NDIMS)
            for ebr, m in zip(ebs, trials):
                yield _metric_row(row, arr, p, "meas", ebr, m, sum(m[s] for s in _STAGES))

    return _frame(per_chunk(chunks, fn))


def sample_reports(
    chunks: RDD, predictor: str, rate: float = 0.01, seed: int = 0
) -> DataFrame:
    """Table II "Sample Err." rows: fidelity of the sampled prediction-error
    distribution per chunk (std deviation relative to value range)."""

    def fn(row, arr):
        report = sample_error_report(arr, predictor, rate=rate, seed=seed)
        return [{k: row[k] for k in _KEYS[:3]} | {"predictor": predictor} | report]

    return _frame(per_chunk(chunks, fn))


def table2_metrics(
    chunks: RDD,
    predictors: Sequence[str],
    ebs_rel: Sequence[float],
    seed: int = 0,
) -> pd.DataFrame:
    """``estimate_metrics``, ``measure_metrics`` and ``sample_reports`` in
    one executor pass, collected as one pandas frame.

    Each row pairs the estimate and the measurement of one (chunk,
    predictor, error bound) and repeats the chunk's ``sample_err``, read
    from the model's own 1% sample (``sample_fidelity``). ``m_ssim`` is NaN
    where SSIM is not measured (1D/4D chunks). ``e_build_s`` and
    ``e_curve_s`` are the seconds of the model's build and ``curve`` on the
    first row of a (chunk, predictor) group and 0.0 on the others;
    ``m_predict_s``, ``m_huffman_s`` and ``m_lossless_s`` are the row's
    trial's stage seconds. The trials run at the estimate rows' ``eb_abs``,
    and a trial over its bound raises ``pipeline.check_error``'s
    ``ValueError`` in the executor, noted with its chunk (``per_chunk``),
    so the job fails.
    """
    import pandas as pd  # here, not with the module (module docstring)

    preds = list(predictors)
    ebs = [float(e) for e in ebs_rel]

    def fn(row, arr):
        for p in preds:
            model, estimates, build_s, curve_s = _estimate_rows(row, arr, p, ebs, seed)
            sample_err = sample_fidelity(arr, p, model)["sample_err"]
            ebs_abs = [e["eb_abs"] for e in estimates]
            for e, m in zip(estimates, pipeline.trials(arr, p, ebs_abs, arr.ndim in SSIM_NDIMS)):
                out = {k: e[k] for k in _KEYS}
                for col, metric in _METRICS.items():
                    out[f"e_{col}"], out[f"m_{col}"] = e[metric], m[metric]
                out |= {"sample_err": sample_err, "e_build_s": build_s, "e_curve_s": curve_s}
                yield out | {f"m_{stage}": m[stage] for stage in _TAE_STAGES}
                build_s = curve_s = 0.0  # the model is built once per group

    return pd.DataFrame(per_chunk(chunks, fn).collect(), columns=_TABLE2_COLUMNS)
