"""Spark integration tests: chunk RDD round-trips and layout, executor-side
per-chunk work vs local computation, and Spark SQL aggregations checked
against the DuckDB oracle."""
import os
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pytest
from pyspark import TaskContext
from pyspark.sql import functions as F

from repro import sci_data
from repro.compressor import pipeline
from repro.core.model import RatioQualityModel
from tests.oracle import assert_equivalent
from repro.sparklayer import (
    chunk_to_array,
    estimate_metrics,
    measure_metrics,
    sample_reports,
    table2_metrics,
)
from repro.sparklayer.chunks import _drop_zip_finders, chunk_rows, layout_chunks, per_chunk


@pytest.fixture(scope="module")
def chunks_rdd(spark):
    d = sci_data.generate("SCALE", "PRES", "test")
    return layout_chunks(spark, chunk_rows("SCALE", "PRES", d, 3)).cache()


def _arrays(chunks) -> dict[tuple[str, str, int], np.ndarray]:
    """Collect a chunk RDD → {(dataset, field, chunk_id): array}."""
    return {
        (r["dataset"], r["field"], int(r["chunk_id"])): chunk_to_array(r)
        for r in chunks.collect()
    }


@pytest.fixture(scope="module")
def metrics_df(spark, chunks_rdd):
    est = estimate_metrics(chunks_rdd, ["lorenzo", "interp"], [1e-3, 1e-2], seed=1)
    meas = measure_metrics(chunks_rdd, ["lorenzo", "interp"], [1e-3, 1e-2])
    return est.unionByName(meas).cache()


def test_chunk_roundtrip_exact(spark, chunks_rdd):
    d = sci_data.generate("SCALE", "PRES", "test")
    arrs = _arrays(chunks_rdd)
    rebuilt = np.concatenate([arrs[("SCALE", "PRES", i)] for i in range(3)], axis=0)
    np.testing.assert_array_equal(rebuilt, d)


def test_chunk_schema(chunks_rdd):
    """A chunk row carries its slab itself: the field's float32 values,
    cut along axis 0."""
    d = sci_data.generate("SCALE", "PRES", "test")
    row = chunks_rdd.first()
    assert set(row) == {"dataset", "field", "chunk_id", "values"}
    arr = chunk_to_array(row)
    assert arr is row["values"]
    assert isinstance(arr, np.ndarray) and arr.dtype == np.float32
    assert arr.shape[1:] == d.shape[1:] and 0 < arr.shape[0] < d.shape[0]


def test_driver_chunk_is_read_only_view_of_field():
    """``chunk_rows`` copies nothing: each slab is a read-only view of the
    field, and the field itself stays writeable."""
    d = sci_data.generate("SCALE", "PRES", "test")
    rows = chunk_rows("SCALE", "PRES", d, 3)
    for r in rows:
        arr = chunk_to_array(r)
        assert np.shares_memory(arr, d)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert d.flags.writeable
    np.testing.assert_array_equal(np.concatenate([chunk_to_array(r) for r in rows]), d)


@pytest.mark.parametrize("dtype", [np.float64, np.int16])
def test_non_float32_chunks_reach_executors_intact(spark, dtype):
    """A float64 and an int16 field of odd shape pass through
    ``layout_chunks`` + ``per_chunk``: each executor sees its slab with the
    field's dtype, its own shape and bytes, read-only."""
    d = (np.random.default_rng(3).normal(size=(5, 3, 7)) * 1000).astype(dtype)
    rows = chunk_rows("T", "odd", d, 3)

    def fn(row, arr):
        return [
            dict(
                chunk_id=row["chunk_id"],
                dtype=str(arr.dtype),
                shape=arr.shape,
                raw=arr.tobytes(),
                writeable=arr.flags.writeable,
            )
        ]

    seen = {r["chunk_id"]: r for r in per_chunk(layout_chunks(spark, rows), fn).collect()}
    assert sorted(seen) == [r["chunk_id"] for r in rows]
    for r in rows:
        got, want = seen[r["chunk_id"]], chunk_to_array(r)
        assert got["dtype"] == str(np.dtype(dtype)) and got["shape"] == want.shape
        assert got["raw"] == want.tobytes()
        assert not got["writeable"]


def test_chunking_single_chunk(spark):
    d = sci_data.generate("Brown", "pressure", "test")
    rdd = layout_chunks(spark, chunk_rows("Brown", "pressure", d, 1))
    assert rdd.count() == 1
    np.testing.assert_array_equal(chunk_to_array(rdd.first()), d)


def _partition_loads(rdd) -> pd.DataFrame:
    """One row per chunk of a laid-out RDD: its field and id, the partition
    id read inside the executor with ``TaskContext``, and its bytes."""
    out = per_chunk(
        rdd,
        lambda row, arr: [
            dict(
                field=row["field"],
                chunk_id=row["chunk_id"],
                part=TaskContext.get().partitionId(),
                nbytes=arr.nbytes,
            )
        ],
    )
    assert "Shuffled" not in out.toDebugString().decode()
    return pd.DataFrame(out.collect())


def test_layout_one_balanced_partition_per_core_without_shuffle(spark):
    """``layout_chunks`` gives ``min(n, defaultParallelism)`` partitions, each
    chunk in exactly one, no partition more than the largest chunk above
    the mean, and ``per_chunk`` over it runs with no shuffle. The two
    large chunks come first, so contiguous slicing alone would put both in
    one partition."""
    rows = [
        r
        for i, n0 in enumerate([40, 40, 2, 3, 1, 2, 5, 2, 1, 3, 2])
        for r in chunk_rows("T", f"f{i}", np.ones((n0, 64), np.float32), 1)
    ]
    p = min(len(rows), spark.sparkContext.defaultParallelism)
    rdd = layout_chunks(spark, rows)
    assert rdd.getNumPartitions() == p
    pdf = _partition_loads(rdd)
    assert sorted(pdf["field"]) == sorted(r["field"] for r in rows)
    loads = pdf.groupby("part")["nbytes"].sum()
    assert set(loads.index) == set(range(p))
    sizes = [r["values"].nbytes for r in rows]
    assert loads.max() <= sum(sizes) / p + max(sizes)


def test_layout_deals_each_group_to_one_partition(spark):
    """``2p + 2`` equal chunks on ``p`` partitions: every partition holds
    ``n // p`` or ``n // p + 1`` of them. ``parallelize`` slices a flat list
    at batch boundaries (``parallelize(range(10), 4)`` gives 2/2/2/4), so a
    layout that handed it the dealt rows as one list fails here."""
    p = spark.sparkContext.defaultParallelism
    n = 2 * p + 2
    rows = chunk_rows("T", "f", np.ones((n, 16), np.float32), n)
    rdd = layout_chunks(spark, rows)
    assert rdd.getNumPartitions() == min(n, p)
    pdf = _partition_loads(rdd)
    assert sorted(pdf["chunk_id"]) == list(range(n))
    counts = pdf.groupby("part").size()
    assert set(counts.index) == set(range(min(n, p)))
    assert counts.max() - counts.min() <= 1, counts.to_dict()


def _zip_finder_paths() -> list[str]:
    return [p for p, f in sys.path_importer_cache.items() if isinstance(f, zipimport.zipimporter)]


def test_drop_zip_finders_keeps_zip_imports_working(tmp_path):
    """Dropping the cached ``zipimporter`` finders loses no import: the next
    import from the same archive builds a new finder and loads the module."""
    archive = tmp_path / "zpkg.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zpkg/__init__.py", "")
        z.writestr("zpkg/first.py", "VALUE = 1\n")
        z.writestr("zpkg/second.py", "VALUE = 2\n")
    sys.path.insert(0, str(archive))
    try:
        import zpkg.first

        assert zpkg.first.VALUE == 1
        assert any(p.startswith(str(archive)) for p in _zip_finder_paths())
        _drop_zip_finders()
        assert _zip_finder_paths() == []
        import zpkg.second

        assert zpkg.second.VALUE == 2
    finally:
        sys.path.remove(str(archive))
        for name in ("zpkg", "zpkg.first", "zpkg.second"):
            sys.modules.pop(name, None)
        _drop_zip_finders()


def test_per_chunk_leaves_reused_workers_no_zip_finders(spark):
    """PySpark's worker calls ``importlib.invalidate_caches()`` at the start of
    every task, which re-reads ``pyspark.zip`` once per cached ``zipimporter``.
    A worker that already ran a ``per_chunk`` task holds none of them."""
    p = spark.sparkContext.defaultParallelism
    rdd = layout_chunks(spark, chunk_rows("T", "f", np.zeros((p, 4), np.float32), p))

    # Counted inline so that ``fn`` pickles by value: the workers never
    # import this test module.
    def fn(row, arr):
        n_zip = sum(
            isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values()
        )
        return [dict(pid=os.getpid(), n_zip=n_zip)]

    seen: set[int] = set()
    reused = 0
    for _ in range(3):
        pdf = pd.DataFrame(per_chunk(rdd, fn).collect())
        assert len(pdf) == p
        ran_before = pdf[pdf["pid"].isin(seen)]
        reused += len(ran_before)
        assert (ran_before["n_zip"] == 0).all(), ran_before
        seen.update(pdf["pid"])
    assert reused > 0


def test_estimate_udf_matches_local(spark, chunks_rdd):
    """Executor-side model == driver-side model, chunk by chunk."""
    pdf = estimate_metrics(chunks_rdd, ["lorenzo"], [1e-2], seed=5).toPandas()
    arrs = _arrays(chunks_rdd)
    for _, r in pdf.iterrows():
        arr = arrs[(r["dataset"], r["field"], int(r["chunk_id"]))]
        local = RatioQualityModel(arr, "lorenzo", seed=5)
        est = local.estimate(local.abs_bound(1e-2))
        assert r["bitrate_huff"] == pytest.approx(est["bitrate_huff"], rel=1e-9)
        assert r["psnr"] == pytest.approx(est["psnr"], rel=1e-9)


def test_measure_udf_matches_local(spark, chunks_rdd):
    pdf = measure_metrics(chunks_rdd, ["lorenzo"], [1e-2]).toPandas()
    arrs = _arrays(chunks_rdd)
    for _, r in pdf.iterrows():
        arr = arrs[(r["dataset"], r["field"], int(r["chunk_id"]))]
        d = np.asarray(arr, np.float64)
        m = pipeline.measure(arr, "lorenzo", 1e-2 * float(d.max() - d.min()))
        assert r["bitrate_huff"] == pytest.approx(m["bitrate_huff"], rel=1e-9)


def test_metric_row_counts(metrics_df):
    # 3 chunks × 2 predictors × 2 ebs × 2 kinds
    assert metrics_df.count() == 24


def test_sample_reports_udf(spark, chunks_rdd):
    pdf = sample_reports(chunks_rdd, "lorenzo", rate=0.01, seed=0).toPandas()
    assert len(pdf) == 3
    # test-scale chunks are ~2.3k points, so the sampling floor dominates;
    # bench-scale fidelity (paper's 0.12%) is checked in the Table II run
    assert (pdf["sample_err"] < 0.15).all()


def test_table2_metrics_matches_separate_passes(spark, chunks_rdd):
    """The fused Table II pass emits one row per (chunk, predictor, bound):
    ``e_*`` from the model pass, ``m_*`` from the compressor pass (a 1D
    chunk's unmeasured SSIM read as NaN) and the chunk's sample report."""
    preds, ebs = ["lorenzo", "interp", "regression"], [1e-3, 1e-2]
    brown = sci_data.generate("Brown", "pressure", "test")
    chunks = chunks_rdd.union(layout_chunks(spark, chunk_rows("Brown", "pressure", brown, 2)))
    wide = table2_metrics(chunks, preds, ebs, seed=1)
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


def test_table2_metrics_rows_carry_nan_ssim_and_finite_values(spark):
    """The wide rows keep their column order; a 1D chunk's unmeasured SSIM
    is NaN and every other value is finite."""
    brown = sci_data.generate("Brown", "pressure", "test")
    chunks = layout_chunks(spark, chunk_rows("Brown", "pressure", brown, 2))
    wide = table2_metrics(chunks, ["lorenzo"], [1e-2])
    assert list(wide.columns) == [
        "dataset", "field", "chunk_id", "predictor", "eb_rel",
        "e_huff", "e_ll", "e_psnr", "e_ssim", "m_huff", "m_ll", "m_psnr", "m_ssim",
        "sample_err", "e_build_s", "e_curve_s", "m_predict_s", "m_huffman_s", "m_lossless_s",
    ]
    assert len(wide) == 2
    assert wide["m_ssim"].isna().all()
    nums = wide.drop(columns=["dataset", "field", "predictor", "m_ssim"])
    assert np.isfinite(nums.to_numpy(np.float64)).all()


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


def test_udf_determinism(spark, chunks_rdd):
    a = estimate_metrics(chunks_rdd, ["lorenzo"], [1e-3], seed=9).toPandas()
    b = estimate_metrics(chunks_rdd, ["lorenzo"], [1e-3], seed=9).toPandas()
    a = a.sort_values("chunk_id").reset_index(drop=True)
    b = b.sort_values("chunk_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a.drop(columns="seconds"), b.drop(columns="seconds")
    )
