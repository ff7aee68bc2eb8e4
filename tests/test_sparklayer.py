"""Spark integration tests: chunk round-trips, executor-side UDFs vs local
computation, and Spark SQL aggregations checked against the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark import TaskContext
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro import sci_data
from repro.compressor import pipeline
from repro.core.model import RatioQualityModel
from repro.oracle import assert_equivalent
from repro.sparklayer import (
    array_to_chunks,
    chunk_to_array,
    chunks_to_arrays,
    estimate_metrics,
    measure_metrics,
    sample_reports,
    table2_metrics,
)
from repro.sparklayer.chunks import chunk_rows, layout_chunks, per_chunk


@pytest.fixture(scope="module")
def chunks_df(spark):
    d = sci_data.generate("SCALE", "PRES", "test")
    return array_to_chunks(spark, "SCALE", "PRES", d, n_chunks=3).cache()


@pytest.fixture(scope="module")
def metrics_df(spark, chunks_df):
    est = estimate_metrics(chunks_df, ["lorenzo", "interp"], [1e-3, 1e-2], seed=1)
    meas = measure_metrics(chunks_df, ["lorenzo", "interp"], [1e-3, 1e-2])
    return est.unionByName(meas).cache()


def test_chunk_roundtrip_exact(spark, chunks_df):
    d = sci_data.generate("SCALE", "PRES", "test")
    arrs = chunks_to_arrays(chunks_df)
    rebuilt = np.concatenate([arrs[("SCALE", "PRES", i)] for i in range(3)], axis=0)
    np.testing.assert_array_equal(rebuilt, d)


def test_chunk_schema(chunks_df):
    assert set(chunks_df.columns) == {
        "dataset", "field", "chunk_id", "dims", "dtype", "values",
    }
    row = chunks_df.first()
    arr = chunk_to_array(row.asDict())
    assert arr.dtype == np.float32


def test_chunking_single_chunk(spark):
    d = sci_data.generate("Brown", "pressure", "test")
    df = array_to_chunks(spark, "Brown", "pressure", d, n_chunks=1)
    assert df.count() == 1
    np.testing.assert_array_equal(chunk_to_array(df.first().asDict()), d)


def test_layout_one_balanced_partition_per_core_without_shuffle(spark):
    """``layout_chunks`` gives ``min(n, defaultParallelism)`` partitions, each
    chunk in exactly one, no partition more than the largest chunk above
    the mean, and ``per_chunk`` over it runs with no ``Exchange``. The two
    large chunks come first, so contiguous slicing alone would put both in
    one partition. Partition ids are read inside the executors: a driver-side
    ``spark_partition_id()`` over a local relation is folded on the driver
    and reads 0 for every row."""
    rows = [
        r
        for i, n0 in enumerate([40, 40, 2, 3, 1, 2, 5, 2, 1, 3, 2])
        for r in chunk_rows("T", f"f{i}", np.ones((n0, 64), np.float32), 1)
    ]
    p = min(len(rows), spark.sparkContext.defaultParallelism)
    df = layout_chunks(spark, rows)
    assert df.rdd.getNumPartitions() == p
    schema = T.StructType(
        [
            T.StructField("field", T.StringType(), False),
            T.StructField("part", T.IntegerType(), False),
            T.StructField("nbytes", T.LongType(), False),
        ]
    )
    out = per_chunk(
        df,
        lambda row, arr: [
            dict(field=row["field"], part=TaskContext.get().partitionId(), nbytes=arr.nbytes)
        ],
        schema,
    )
    pdf = out.toPandas()
    assert "Exchange" not in out._jdf.queryExecution().executedPlan().toString()
    assert sorted(pdf["field"]) == sorted(r["field"] for r in rows)
    loads = pdf.groupby("part")["nbytes"].sum()
    assert set(loads.index) == set(range(p))
    sizes = [len(r["values"]) for r in rows]
    assert loads.max() <= sum(sizes) / p + max(sizes)


def test_estimate_udf_matches_local(spark, chunks_df):
    """Executor-side model == driver-side model, chunk by chunk."""
    pdf = estimate_metrics(chunks_df, ["lorenzo"], [1e-2], seed=5).toPandas()
    arrs = chunks_to_arrays(chunks_df)
    for _, r in pdf.iterrows():
        arr = arrs[(r["dataset"], r["field"], int(r["chunk_id"]))]
        local = RatioQualityModel(arr, "lorenzo", seed=5)
        est = local.estimate(local.abs_bound(1e-2))
        assert r["bitrate_huff"] == pytest.approx(est["bitrate_huff"], rel=1e-9)
        assert r["psnr"] == pytest.approx(est["psnr"], rel=1e-9)


def test_measure_udf_matches_local(spark, chunks_df):
    pdf = measure_metrics(chunks_df, ["lorenzo"], [1e-2]).toPandas()
    arrs = chunks_to_arrays(chunks_df)
    for _, r in pdf.iterrows():
        arr = arrs[(r["dataset"], r["field"], int(r["chunk_id"]))]
        d = np.asarray(arr, np.float64)
        m = pipeline.measure(arr, "lorenzo", 1e-2 * float(d.max() - d.min()))
        assert r["bitrate_huff"] == pytest.approx(m["bitrate_huff"], rel=1e-9)


def test_metric_row_counts(metrics_df):
    # 3 chunks × 2 predictors × 2 ebs × 2 kinds
    assert metrics_df.count() == 24


def test_sample_reports_udf(spark, chunks_df):
    pdf = sample_reports(chunks_df, "lorenzo", rate=0.01, seed=0).toPandas()
    assert len(pdf) == 3
    # test-scale chunks are ~2.3k points, so the sampling floor dominates;
    # bench-scale fidelity (paper's 0.12%) is checked in the Table II run
    assert (pdf["sample_err"] < 0.15).all()


def test_table2_metrics_matches_separate_passes(spark, chunks_df):
    """The fused Table II pass emits one row per (chunk, predictor, bound):
    ``e_*`` from the model pass, ``m_*`` from the compressor pass (a 1D
    chunk's unmeasured SSIM read as null) and the chunk's sample report."""
    preds, ebs = ["lorenzo", "interp"], [1e-3, 1e-2]
    brown = sci_data.generate("Brown", "pressure", "test")
    chunks = chunks_df.unionByName(array_to_chunks(spark, "Brown", "pressure", brown, 2))
    wide = table2_metrics(chunks, preds, ebs, seed=1).toPandas()
    keys = ["dataset", "field", "chunk_id", "predictor", "eb_rel"]
    rows_per_chunk = wide.groupby(keys[:3]).size()
    assert len(rows_per_chunk) == 3 + 2 and (rows_per_chunk == len(preds) * len(ebs)).all()
    wide = wide.sort_values(keys).reset_index(drop=True)
    assert (wide["m_ssim"].isna() == (wide["dataset"] == "Brown")).all()
    assert wide["e_ssim"].notna().all()
    for side, ref in (
        ("e", estimate_metrics(chunks, preds, ebs, seed=1)),
        ("m", measure_metrics(chunks, preds, ebs)),
    ):
        ref = ref.toPandas().sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(wide[keys], ref[keys])
        for col in ("huff", "ll", "psnr", "ssim"):
            metric = f"bitrate_{col}" if col in ("huff", "ll") else col
            np.testing.assert_array_equal(wide[f"{side}_{col}"], ref[metric], err_msg=col)
    samp = pd.concat([sample_reports(chunks, p, rate=0.01, seed=1).toPandas() for p in preds])
    got = wide.merge(samp, on=keys[:4], suffixes=("", "_ref"), validate="many_to_one")
    assert len(got) == len(wide)
    np.testing.assert_array_equal(got["sample_err"], got["sample_err_ref"])


# ---------------------------------------------------------------------------
# Oracle-checked Spark SQL aggregations (the relational layer of the repro)
# ---------------------------------------------------------------------------
def test_mean_bitrate_per_group_vs_oracle(spark, metrics_df):
    out = (
        metrics_df.groupBy("predictor", "kind", "eb_rel")
        .agg(
            F.avg("bitrate_huff").alias("mean_bitrate"),
            F.count(F.lit(1)).alias("n"),
        )
    )
    assert_equivalent(
        out,
        """
        SELECT predictor, kind, eb_rel,
               avg(bitrate_huff) AS mean_bitrate,
               count(*) AS n
        FROM metrics GROUP BY predictor, kind, eb_rel
        """,
        metrics=metrics_df,
    )


def test_best_predictor_per_chunk_vs_oracle(spark, metrics_df):
    """Use-case-1 selection as SQL: per (chunk, eb), the predictor with the
    highest estimated PSNR."""
    est = metrics_df.filter(F.col("kind") == "est")
    out = (
        est.groupBy("chunk_id", "eb_rel")
        .agg(F.max_by("predictor", "psnr").alias("best_predictor"))
    )
    assert_equivalent(
        out,
        """
        SELECT chunk_id, eb_rel, arg_max(predictor, psnr) AS best_predictor
        FROM metrics WHERE kind = 'est' GROUP BY chunk_id, eb_rel
        """,
        metrics=metrics_df,
    )


def test_weighted_field_bitrate_vs_oracle(spark, metrics_df):
    """Points-weighted per-field bit-rate (chunks differ in size)."""
    meas = metrics_df.filter((F.col("kind") == "meas") & (F.col("predictor") == "lorenzo"))
    out = meas.groupBy("dataset", "field", "eb_rel").agg(
        (
            F.sum(F.col("bitrate_huff") * F.col("n_points")) / F.sum("n_points")
        ).alias("wmean_bitrate")
    )
    assert_equivalent(
        out,
        """
        SELECT dataset, field, eb_rel,
               sum(bitrate_huff * n_points) / sum(n_points) AS wmean_bitrate
        FROM metrics
        WHERE kind = 'meas' AND predictor = 'lorenzo'
        GROUP BY dataset, field, eb_rel
        """,
        metrics=metrics_df,
    )


def test_udf_determinism(spark, chunks_df):
    a = estimate_metrics(chunks_df, ["lorenzo"], [1e-3], seed=9).toPandas()
    b = estimate_metrics(chunks_df, ["lorenzo"], [1e-3], seed=9).toPandas()
    a = a.sort_values("chunk_id").reset_index(drop=True)
    b = b.sort_values("chunk_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a.drop(columns="seconds"), b.drop(columns="seconds")
    )
