"""§V-F tests: the Spark-parallel data-dump harness (Fig. 14 substrate)."""
import glob
import os

import numpy as np
import pytest

from repro.compressor import pipeline
from repro.sci_data import rtm_snapshot
from repro.usecases.data_dump import (
    candidate_abs_ebs,
    dump_snapshot,
    offline_worstcase_abs_eb,
    read_partition_file,
    run_dump_study,
)

SHAPE = (8, 24, 24)
TARGET = 50.0


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("dump"))


def test_offline_worstcase_is_a_candidate():
    eb = offline_worstcase_abs_eb([1000, 3400], SHAPE, TARGET)
    d0 = rtm_snapshot(1000, SHAPE)
    assert eb in candidate_abs_ebs(float(d0.max() - d0.min()))


def test_offline_worstcase_tightens_with_quality():
    loose = offline_worstcase_abs_eb([2000], SHAPE, 30.0)
    tight = offline_worstcase_abs_eb([2000], SHAPE, 70.0)
    assert tight <= loose


@pytest.mark.parametrize("method", ["traditional", "tae", "model"])
def test_dump_snapshot_writes_decodable_partitions(spark, outdir, method):
    d = rtm_snapshot(2000, SHAPE)
    kwargs = {}
    if method == "traditional":
        kwargs["traditional_abs_eb"] = 1e-3 * float(d.max() - d.min())
    pdf = dump_snapshot(
        spark, d, 2000, outdir, method, target_psnr_db=TARGET,
        n_partitions=2, **kwargs,
    )
    assert len(pdf) == 2
    assert (pdf["nbytes"] > 0).all()
    assert (pdf["compress_seconds"] > 0).all()
    # every partition file decodes within its error bound
    bounds = np.linspace(0, SHAPE[0], 3).astype(int)
    for _, r in pdf.iterrows():
        path = os.path.join(outdir, f"t2000_{method}_p{int(r['chunk_id'])}.bin")
        rec = read_partition_file(path)
        a, b = bounds[int(r["chunk_id"])], bounds[int(r["chunk_id"]) + 1]
        orig = np.asarray(d[a:b], np.float64)
        assert np.max(np.abs(rec - orig)) <= r["eb_abs"] * (1 + 1e-9)
        # the file holds exactly the bytes the rank accounted
        c = pipeline.compress(d[a:b], "lorenzo", r["eb_abs"])
        assert os.path.getsize(path) == r["nbytes"] == c.nbytes_lossless


def test_dump_snapshot_more_ranks_than_tasks(spark, outdir):
    """Ranks are chunks, not Spark tasks: with one rank more than
    ``defaultParallelism`` some tasks run two ranks, and every rank still
    gets its own row and its own decodable file."""
    ranks = spark.sparkContext.defaultParallelism + 1
    shape = (2 * ranks, 12, 12)
    d = rtm_snapshot(2200, shape)
    pdf = dump_snapshot(
        spark, d, 2200, outdir, "model", target_psnr_db=TARGET, n_partitions=ranks
    )
    assert sorted(pdf["chunk_id"]) == list(range(ranks))
    for _, r in pdf.iterrows():
        cid = int(r["chunk_id"])
        rec = read_partition_file(os.path.join(outdir, f"t2200_model_p{cid}.bin"))
        orig = np.asarray(d[2 * cid : 2 * cid + 2], np.float64)
        assert np.max(np.abs(rec - orig)) <= r["eb_abs"] * (1 + 1e-9)


def test_dump_snapshot_rejects_codes_outside_int32(spark, outdir):
    """A 1e6-range field at eb = 1e-5 has Lorenzo codes beyond int32. The
    dump must fail rather than write a file that breaks the bound."""
    d = np.random.default_rng(0).normal(size=SHAPE)
    d = (d - d.min()) / (d.max() - d.min()) * 1e6
    with pytest.raises(Exception, match="int32"):
        dump_snapshot(
            spark, d, 7, outdir, "traditional", traditional_abs_eb=1e-5, n_partitions=1
        )
    assert not glob.glob(os.path.join(outdir, "t7_*"))


def test_dump_model_and_tae_meet_quality_target(spark, outdir):
    """Both in-situ methods must keep every rank's MSE within the
    snapshot-level PSNR budget (the paper's quality criterion)."""
    d = rtm_snapshot(1500, SHAPE)
    rng = float(d.max() - d.min())
    budget = rng * rng * 10 ** (-TARGET / 10)
    for method in ("tae", "model"):
        pdf = dump_snapshot(
            spark, d, 1500, outdir, method, target_psnr_db=TARGET, n_partitions=2
        )
        assert (pdf["mse"] <= budget * 1.1).all(), method


def test_dump_model_optimization_cheaper_than_tae(spark, outdir):
    """The point of the paper: model optimization ≪ trial-and-error. Needs
    a non-trivial chunk — at a few thousand points the model's fixed
    bisection overhead rivals TAE's toy compressions."""
    d = rtm_snapshot(2500, (16, 48, 48))
    tae = dump_snapshot(spark, d, 2500, outdir, "tae", target_psnr_db=TARGET, n_partitions=2)
    ours = dump_snapshot(spark, d, 2500, outdir, "model", target_psnr_db=TARGET, n_partitions=2)
    assert ours["opt_seconds"].sum() < tae["opt_seconds"].sum()


def test_dump_unknown_method_raises(spark, outdir):
    d = rtm_snapshot(2000, SHAPE)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        dump_snapshot(spark, d, 2000, outdir, "bogus", n_partitions=1)


def test_traditional_requires_rel_eb(spark, outdir):
    d = rtm_snapshot(2000, SHAPE)
    with pytest.raises(ValueError, match="needs traditional_abs_eb"):
        dump_snapshot(spark, d, 2000, outdir, "traditional", n_partitions=1)


def test_run_dump_study_structure(spark, outdir):
    pdf = run_dump_study(
        spark, [1200, 2400], SHAPE, outdir, target_psnr_db=TARGET, n_partitions=2
    )
    assert set(pdf["method"]) == {"traditional", "tae", "model"}
    assert len(pdf) == 6
    assert (pdf["total_seconds"] > 0).all()
    assert (pdf["snapshot_psnr"] >= TARGET - 2.0).all()
    # raw files exist alongside compressed partitions
    assert glob.glob(os.path.join(outdir, "t1200_raw.bin"))
    # compressed dumps are smaller than raw
    raw_bytes = 4 * np.prod(SHAPE)
    assert (pdf["nbytes"] < raw_bytes).all()
