"""End-to-end run of the Table II job (jobs/table2_accuracy.py) at test
scale: its chunk corpus layout, its Eq. 20 aggregation against the DuckDB
oracle and its output against the committed table."""
import math
import sys
from pathlib import Path

import pandas as pd
import pytest

from repro import sci_data
from repro.config import EB_SWEEP_REL
from repro.oracle import assert_equivalent
from repro.sparklayer import table2_metrics

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
    """The job's one groupBy over the wide rows, checked against DuckDB.
    DuckDB reads the rows' NaN SSIM (null in Spark) as NULL, so 1D/4D
    fields get a NULL SSIM error on both sides."""
    rows = table2_metrics(
        table2_accuracy.build_corpus(spark, "test"), ["lorenzo"], EB_SWEEP_REL, seed=7
    ).cache()
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
    rows.unpersist()


def test_main_reproduces_committed_table(spark, monkeypatch):
    emitted = []
    monkeypatch.setattr(
        table2_accuracy, "emit", lambda name, pdf, float_fmt="%.4g": emitted.append(name)
    )
    out = table2_accuracy.main(spark, "test")
    assert emitted == ["table2_accuracy_test"]
    ref = pd.read_csv(CSV, dtype={"dataset": str, "field": str})
    assert list(out.columns) == list(ref.columns)
    assert list(zip(out["dataset"], out["field"])) == list(zip(ref["dataset"], ref["field"]))
    for c in ref.columns[2:]:
        for key, got, want in zip(ref["dataset"] + "/" + ref["field"], out[c], ref[c]):
            if math.isnan(want):
                assert math.isnan(got), (key, c, got)
            else:
                assert got == pytest.approx(want, rel=0, abs=1e-9), (key, c)
