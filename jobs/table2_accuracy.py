"""Table II: accuracy of the ratio-quality model on all 17 dataset fields.

For every field: chunk it (Spark), then run the model (executor-side, 1%
sample), the real compressor across the 7-error-bound sweep and the sample
report in one executor pass over the chunks (``table2_metrics``). Spark SQL
splits that one stored output by ``kind``, joins estimates to measurements
and computes the paper's Eq. 20 error per column:

  Sample Err. | Huff Err. | Lossless Err. | Huff+LL Err. | PSNR Err. | SSIM Err.

SSIM follows the paper's Table II in being reported only for 2D/3D fields.
The supplemental FFT study (Fig. 8) reproduces the data-specific post-hoc
analysis on the Nyx temperature field, including the uniform-distribution
prior-work baseline.

Run: ``spark-submit jobs/table2_accuracy.py [--scale test|bench]``.
"""
from __future__ import annotations

import argparse

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import analysis, sci_data
from repro.config import EB_SWEEP_REL
from repro.core.model import RatioQualityModel
from repro.sparklayer import CHUNK_SCHEMA, table2_metrics
from repro.sparklayer.chunks import chunk_rows

# Not called by ``main``; the benchmark's traced pass (perfbench/wl_table2.py)
# swaps these names on this module while it times each stream on its own.
from repro.sparklayer import estimate_metrics, measure_metrics, sample_reports  # noqa: F401

from _common import emit, get_spark


def build_corpus(spark: SparkSession, scale: str = "bench", n_chunks: int = 4) -> DataFrame:
    """All 17 Table II fields as one chunk DataFrame, dealt round-robin over
    about two partitions per core so every task carries several chunks."""
    rows = [
        r
        for spec in sci_data.FIELDS
        for r in chunk_rows(
            spec.dataset, spec.field, sci_data.generate(spec.dataset, spec.field, scale), n_chunks
        )
    ]
    df = spark.createDataFrame(pd.DataFrame(rows), schema=CHUNK_SCHEMA)
    return df.repartition(min(len(rows), 2 * spark.sparkContext.defaultParallelism))


def _eq20_sql(col: str) -> F.Column:
    """Eq. 20 over the ratio column: 1 - 1/(1 + stddev_pop(r - 1))."""
    s = F.stddev_pop(F.col(col) - F.lit(1.0))
    return (F.lit(1.0) - F.lit(1.0) / (F.lit(1.0) + s)).alias(f"{col}_eq20")


def main(spark: SparkSession, scale: str = "bench", predictor: str = "lorenzo") -> pd.DataFrame:
    # Kept in executor memory as cache() would, but with the corpus shuffle cut
    # from the lineage: later jobs do not list that shuffle again, and the join
    # does not schedule one materializing stage per side.
    rows = table2_metrics(
        build_corpus(spark, scale), [predictor], EB_SWEEP_REL, sample_rate=0.01, seed=7
    ).localCheckpoint()
    keys = ["dataset", "field", "chunk_id", "predictor", "eb_rel"]
    e = rows.filter(F.col("kind") == "est").select(
        *keys,
        F.col("bitrate_huff").alias("e_huff"),
        F.col("bitrate_ll").alias("e_ll"),
        F.col("psnr").alias("e_psnr"),
        F.col("ssim").alias("e_ssim"),
    )
    m = rows.filter(F.col("kind") == "meas").select(
        *keys,
        F.col("bitrate_huff").alias("m_huff"),
        F.col("bitrate_ll").alias("m_ll"),
        F.col("psnr").alias("m_psnr"),
        F.col("ssim").alias("m_ssim"),
    )
    j = e.join(m, keys)
    j = j.select(
        "dataset",
        "field",
        (F.col("m_huff") / F.col("e_huff")).alias("r_huff"),
        # "Lossless": the *extra* ratio contributed by the lossless stage
        ((F.col("m_huff") / F.col("m_ll")) / (F.col("e_huff") / F.col("e_ll"))).alias("r_extra"),
        (F.col("m_ll") / F.col("e_ll")).alias("r_lltot"),
        (F.col("m_psnr") / F.col("e_psnr")).alias("r_psnr"),
        F.when(
            F.isnan("m_ssim") | F.isnan("e_ssim"), F.lit(None)
        ).otherwise(F.col("m_ssim") / F.col("e_ssim")).alias("r_ssim"),
        # supplemental, stricter view: ratios of the SSIM *distortion*
        # (1-SSIM), the quantity Fig. 7 plots in log scale
        F.when(
            F.isnan("m_ssim") | F.isnan("e_ssim"), F.lit(None)
        ).otherwise(
            (F.lit(1.0) - F.col("m_ssim")) / (F.lit(1.0) - F.col("e_ssim"))
        ).alias("r_ssim_dist"),
    )
    agg = (
        j.groupBy("dataset", "field")
        .agg(
            _eq20_sql("r_huff"),
            _eq20_sql("r_extra"),
            _eq20_sql("r_lltot"),
            _eq20_sql("r_psnr"),
            _eq20_sql("r_ssim"),
            _eq20_sql("r_ssim_dist"),
        )
        .toPandas()
    )
    samp = (
        rows.filter(F.col("kind") == "sample")
        .groupBy("dataset", "field")
        .agg(F.avg("sample_err").alias("sample_err"))
        .toPandas()
    )
    out = samp.merge(agg, on=["dataset", "field"])
    order = {(s.dataset, s.field): i for i, s in enumerate(sci_data.FIELDS)}
    out["__o"] = out.apply(lambda r: order[(r["dataset"], r["field"])], axis=1)
    out = out.sort_values("__o").drop(columns="__o").reset_index(drop=True)
    out = out.rename(
        columns={
            "r_huff_eq20": "huff_err",
            "r_extra_eq20": "lossless_err",
            "r_lltot_eq20": "huff_ll_err",
            "r_psnr_eq20": "psnr_err",
            "r_ssim_eq20": "ssim_err",
            "r_ssim_dist_eq20": "ssim_dist_err",
        }
    )
    # null SSIM for the fields the paper marks "-"
    no_ssim = {(s.dataset, s.field) for s in sci_data.FIELDS if not s.has_ssim}
    mask = out.apply(lambda r: (r["dataset"], r["field"]) in no_ssim, axis=1)
    out.loc[mask, ["ssim_err", "ssim_dist_err"]] = np.nan
    avg = out.mean(numeric_only=True).to_frame().T
    avg.insert(0, "dataset", "Average")
    avg.insert(1, "field", "-")
    out = pd.concat([out, avg], ignore_index=True)
    pct = out.copy()
    for c in (
        "sample_err", "huff_err", "lossless_err", "huff_ll_err",
        "psnr_err", "ssim_err", "ssim_dist_err",
    ):
        pct[c] = (100 * pct[c]).round(2)
    emit(f"table2_accuracy_{scale}", pct)
    return pct


def fft_quality_study(scale: str = "bench", predictor: str = "lorenzo") -> pd.DataFrame:
    """Fig. 8 reproduction: FFT (power-spectrum) quality degradation on the
    Nyx temperature field — measured vs our model vs the uniform-only
    prior-work baseline [23]."""
    d = sci_data.generate("Nyx", "temperature", scale).astype(np.float64)
    rng = float(d.max() - d.min())
    _, pk, modes = analysis.power_spectrum(d)
    model = RatioQualityModel(d, predictor, seed=7)
    rows = []
    from repro.compressor import pipeline

    for ebr in EB_SWEEP_REL:
        eb = ebr * rng
        c = pipeline.compress(d, predictor, eb)
        rec = pipeline.decompress(c)
        rows.append(
            dict(
                eb_rel=ebr,
                measured=analysis.spectrum_rel_error(d, rec),
                model=model.estimate_fft(eb, pk, modes),
                uniform_only=model.estimate_fft(eb, pk, modes, uniform_only=True),
            )
        )
    pdf = pd.DataFrame(rows)
    emit(f"fig8_fft_{scale}", pdf)
    return pdf


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="bench", choices=["test", "bench"])
    ap.add_argument("--predictor", default="lorenzo")
    args = ap.parse_args()
    spark = get_spark("table2")
    main(spark, args.scale, args.predictor)
    fft_quality_study(args.scale, args.predictor)
