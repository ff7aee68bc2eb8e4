"""End-to-end run of the Table II job (jobs/table2_accuracy.py) at test
scale: its chunk corpus layout, its Eq. 20 aggregation against the DuckDB
oracle and Spark's NaN rule, the Spark work of one run and its output
against the committed table."""
import math
import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import SparkSession

from repro import sci_data
from repro.config import EB_SWEEP_REL
from tests.oracle import assert_equivalent
from tests.stand_ins import LocalChunks, break_the_bound
from repro.sparklayer import table2_metrics
from repro.sparklayer.chunks import chunk_rows

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "jobs"))
import table2_accuracy  # noqa: E402

CSV = ROOT / "results" / "table2_accuracy_test.csv"


def test_build_corpus_holds_every_chunk_once(spark):
    rdd = table2_accuracy.build_corpus(spark, "test")
    keys = rdd.map(lambda r: (r["dataset"], r["field"], r["chunk_id"])).collect()
    # 4 slabs per field, fewer where axis 0 is shorter (test-scale EXAFEL: 2)
    expected = {
        (s.dataset, s.field, c)
        for s in sci_data.FIELDS
        for c in range(min(4, sci_data.generate(s.dataset, s.field, "test").shape[0]))
    }
    assert len(keys) == len(set(keys)) == len(expected)
    assert set(keys) == expected
    assert rdd.getNumPartitions() == min(len(keys), spark.sparkContext.defaultParallelism)


def eq20(ratio: str) -> str:
    return f"1 - 1 / (1 + stddev_pop({ratio} - 1))"


def test_table2_errors_vs_oracle(spark):
    """The job's Eq. 20 aggregation over the wide rows, checked against
    DuckDB. DuckDB reads the rows' NaN SSIM as NULL, so 1D/4D fields get a
    NULL SSIM error there and a NaN one in the job."""
    rows = table2_metrics(
        table2_accuracy.build_corpus(spark, "test"), ["lorenzo"], EB_SWEEP_REL, seed=7
    )
    assert_equivalent(
        table2_accuracy.table2_errors(rows),
        f"""
        SELECT dataset, field,
               avg(sample_err) AS sample_err,
               {eq20("m_huff / e_huff")} AS huff_err,
               {eq20("(m_huff / m_ll) / (e_huff / e_ll)")} AS lossless_err,
               {eq20("m_ll / e_ll")} AS huff_ll_err,
               {eq20("m_psnr / e_psnr")} AS psnr_err,
               {eq20("m_ssim / e_ssim")} AS ssim_err,
               {eq20("(1 - m_ssim) / (1 - e_ssim)")} AS ssim_dist_err
        FROM rows GROUP BY dataset, field
        """,
        rows=rows,
    )


def test_table2_errors_nan_ratio_makes_group_nan():
    """Eq. 20 keeps Spark's ``stddev_pop`` rule: a NaN ratio in a group makes
    that group's error NaN (it is not skipped), and an all-NaN ``m_ssim``
    group reads NaN; the population std is taken (ddof = 0)."""
    m = np.array([1.0, 1.2, 0.9, 1.1])
    rows = pd.DataFrame(
        {
            "dataset": ["A"] * 2 + ["B"] * 2,
            "field": ["a"] * 2 + ["b"] * 2,
            "sample_err": [0.1, 0.3, 0.2, 0.2],
            "e_huff": 1.0, "e_ll": 1.0, "e_psnr": [40.0, np.nan, 40.0, 40.0], "e_ssim": 0.5,
            "m_huff": m, "m_ll": m, "m_psnr": 40.0 * m, "m_ssim": [0.5, 0.6, np.nan, np.nan],
        }
    )
    out = table2_accuracy.table2_errors(rows).set_index("dataset")
    assert math.isnan(out.loc["A", "psnr_err"])
    assert out.loc["B", "psnr_err"] == pytest.approx(1 - 1 / (1 + 0.1))
    assert out.loc["A", "ssim_err"] == pytest.approx(1 - 1 / (1 + 0.1))
    assert math.isnan(out.loc["B", "ssim_err"]) and math.isnan(out.loc["B", "ssim_dist_err"])
    assert out.loc["A", "huff_err"] == pytest.approx(1 - 1 / (1 + 0.1))
    assert list(out["sample_err"]) == pytest.approx([0.2, 0.2])


def _job_shape(sc, group: str, timeout_s: float = 30.0) -> dict:
    """Jobs, stages and tasks of ``group``, once every job has ended (the
    status tracker is fed by Spark's listener bus, which may lag)."""
    tracker = sc.statusTracker()
    deadline = time.monotonic() + timeout_s
    while True:
        jobs = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
        ended = all(j is not None and j.status in ("SUCCEEDED", "FAILED") for j in jobs)
        if (jobs and ended) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    stages = {s for j in jobs if j is not None for s in j.stageIds}
    infos = [tracker.getStageInfo(s) for s in stages]
    return {
        "jobs": len(jobs),
        "stages": len(stages),
        "tasks": sum(i.numTasks for i in infos if i is not None),
    }


def test_main_is_one_job_of_one_stage_without_spark_sql(spark, monkeypatch):
    """One run of the job is one Spark job of one stage with a task per
    chunk partition, and makes no DataFrame."""

    def no_sql(*args, **kwargs):
        raise AssertionError("the Table II job must not call createDataFrame")

    monkeypatch.setattr(SparkSession, "createDataFrame", no_sql)
    monkeypatch.setattr(table2_accuracy, "emit", lambda name, pdf, float_fmt="%.4g": None)
    sc = spark.sparkContext
    group = "test-table2-job-shape"
    sc.setJobGroup(group, "Table II job shape")
    try:
        out = table2_accuracy.main(spark, "test")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(out) == len(sci_data.FIELDS) + 1
    n_tasks = table2_accuracy.build_corpus(spark, "test").getNumPartitions()
    assert _job_shape(sc, group) == {"jobs": 1, "stages": 1, "tasks": n_tasks}


def test_main_reproduces_committed_table(spark, monkeypatch):
    emitted = []
    monkeypatch.setattr(
        table2_accuracy, "emit", lambda name, pdf, float_fmt="%.4g": emitted.append(name)
    )
    out = table2_accuracy.main(spark, "test")
    assert emitted == ["table2_accuracy_test", "tableE1_overhead_test"]
    ref = pd.read_csv(CSV, dtype={"dataset": str, "field": str})
    assert list(out.columns) == list(ref.columns)
    assert list(zip(out["dataset"], out["field"])) == list(zip(ref["dataset"], ref["field"]))
    for c in ref.columns[2:]:
        for key, got, want in zip(ref["dataset"] + "/" + ref["field"], out[c], ref[c]):
            if math.isnan(want):
                assert math.isnan(got), (key, c, got)
            else:
                assert got == pytest.approx(want, rel=0, abs=1e-9), (key, c)


def test_main_emits_table_e1_from_the_table2_trials(spark, monkeypatch):
    """Table E1 has one row per field, in Table II's order, plus the
    Average, today's columns and totals that are the sums of their stages."""
    emitted = {}
    monkeypatch.setattr(
        table2_accuracy, "emit", lambda name, pdf, float_fmt="%.4g": emitted.update({name: pdf})
    )
    table2_accuracy.main(spark, "test")
    e1 = emitted["tableE1_overhead_test"]
    assert list(e1.columns) == [
        "field", "ours_sampling_s", "ours_estimate_s", "ours_total_s",
        "tae_predictor_s", "tae_huffman_s", "tae_lossless_s", "tae_total_s", "speedup",
    ]
    assert list(e1["field"]) == [f"{s.dataset}/{s.field}" for s in sci_data.FIELDS] + ["Average"]
    secs = e1.drop(columns="field")
    assert np.isfinite(secs.to_numpy(np.float64)).all() and (secs.to_numpy() > 0).all()
    np.testing.assert_allclose(
        e1["tae_total_s"], e1[["tae_predictor_s", "tae_huffman_s", "tae_lossless_s"]].sum(axis=1),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        e1["ours_total_s"], e1["ours_sampling_s"] + e1["ours_estimate_s"], rtol=1e-12
    )
    np.testing.assert_allclose(e1["speedup"], e1["tae_total_s"] / e1["ours_total_s"], rtol=1e-12)
    np.testing.assert_allclose(secs.iloc[-1, :-1], secs.iloc[:-1, :-1].mean(), rtol=1e-12)


def test_main_rejects_a_trial_over_its_bound(monkeypatch):
    """The job checks the hard bound of every trial: a decompressor that
    moves one point by 2·eb makes it raise, naming the predictor and the
    bound (``pipeline.check_error``) and, in a note, the chunk
    (``per_chunk``)."""
    rows = chunk_rows("SCALE", "PRES", sci_data.generate("SCALE", "PRES", "test"), 2)
    monkeypatch.setattr(table2_accuracy, "build_corpus", lambda spark, scale: LocalChunks(rows))
    monkeypatch.setattr(table2_accuracy, "emit", lambda name, pdf, float_fmt="%.4g": None)
    assert len(table2_metrics(LocalChunks(rows), ["lorenzo"], EB_SWEEP_REL)) == 2 * 7
    break_the_bound(monkeypatch)
    with pytest.raises(ValueError, match=r"^lorenzo: max error .* exceeds the bound .*\n"
                       r"in SCALE/PRES chunk 0$"):
        table2_accuracy.main(None, "test")
