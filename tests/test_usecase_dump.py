"""§V-F tests: the Spark-parallel data-dump harness (Fig. 14 substrate)."""
import glob
import os

import numpy as np
import pytest

from repro.compressor import pipeline
from repro.core import quality_model
from repro.sci_data import rtm_snapshot
from repro.usecases import data_dump
from repro.usecases.data_dump import (
    candidate_abs_ebs,
    dump_snapshot,
    offline_worstcase_abs_eb,
    read_partition_file,
    run_dump_study,
    snapshot_psnr,
)

SHAPE = (8, 24, 24)
TARGET = 50.0


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("dump"))


def _cands(d) -> tuple[float, ...]:
    """The dump's candidate bounds on ``d``'s own value range."""
    return candidate_abs_ebs(float(np.ptp(np.asarray(d, np.float64))))


def test_offline_worstcase_is_a_candidate():
    d0 = rtm_snapshot(1000, SHAPE)
    cands = candidate_abs_ebs(float(d0.max() - d0.min()))
    eb = offline_worstcase_abs_eb([d0, rtm_snapshot(3400, SHAPE)], TARGET, "lorenzo", cands)
    assert eb in cands


def test_offline_worstcase_tightens_with_quality():
    d0 = rtm_snapshot(2000, SHAPE)
    cands = candidate_abs_ebs(float(d0.max() - d0.min()))
    loose = offline_worstcase_abs_eb([d0], 30.0, "lorenzo", cands)
    tight = offline_worstcase_abs_eb([d0], 70.0, "lorenzo", cands)
    assert tight <= loose


@pytest.mark.parametrize("method", ["traditional", "tae", "model"])
def test_dump_snapshot_writes_decodable_partitions(spark, outdir, method):
    d = rtm_snapshot(2000, SHAPE)
    kwargs = {}
    if method == "traditional":
        kwargs["traditional_abs_eb"] = 1e-3 * float(d.max() - d.min())
    pdf = dump_snapshot(
        spark, d, 2000, outdir, method, _cands(d), target_psnr_db=TARGET,
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
        spark, d, 2200, outdir, "model", _cands(d), target_psnr_db=TARGET, n_partitions=ranks
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
            spark, d, 7, outdir, "traditional", _cands(d), traditional_abs_eb=1e-5,
            n_partitions=1,
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
            spark, d, 1500, outdir, method, _cands(d), target_psnr_db=TARGET, n_partitions=2
        )
        assert (pdf["mse"] <= budget * 1.1).all(), method


@pytest.mark.parametrize("method", ["tae", "model"])
def test_dump_constant_rank(spark, outdir, method):
    """A rank whose slab is constant (all zero ahead of the wavefront)
    dumps with both in-situ methods, although the model has no bounds to
    search there: every rank's MSE meets the snapshot budget and its file
    reads back within its bound."""
    d = rtm_snapshot(3000, SHAPE)
    d[:2] = 0
    budget = quality_model.mse_budget(float(d.max() - d.min()), TARGET)
    pdf = dump_snapshot(
        spark, d, 3000, outdir, method, _cands(d), target_psnr_db=TARGET, n_partitions=4
    )
    assert (pdf["mse"] <= budget).all()
    for _, r in pdf.iterrows():
        cid = int(r["chunk_id"])
        rec = read_partition_file(os.path.join(outdir, f"t3000_{method}_p{cid}.bin"))
        orig = np.asarray(d[2 * cid : 2 * cid + 2], np.float64)
        assert np.max(np.abs(rec - orig)) <= r["eb_abs"]


@pytest.mark.parametrize("fill", [0.0, 3.0])
@pytest.mark.parametrize("method", ["tae", "model"])
def test_dump_constant_snapshot(spark, outdir, method, fill):
    """A wholly constant snapshot has a zero MSE budget; both in-situ
    methods still dump it (the strictest candidate), every rank reads back
    within its bound, and the snapshot's PSNR is inf."""
    d = np.full(SHAPE, fill)
    t = 4000 + int(fill)
    cands = _cands(rtm_snapshot(3000, SHAPE))
    pdf = dump_snapshot(spark, d, t, outdir, method, cands, target_psnr_db=TARGET, n_partitions=4)
    for _, r in pdf.iterrows():
        cid = int(r["chunk_id"])
        rec = read_partition_file(os.path.join(outdir, f"t{t}_{method}_p{cid}.bin"))
        assert np.max(np.abs(rec - d[2 * cid : 2 * cid + 2])) <= r["eb_abs"]
    assert snapshot_psnr(pdf) == np.inf


def test_dump_model_optimization_cheaper_than_tae(spark, outdir):
    """The point of the paper: model optimization ≪ trial-and-error. Needs
    a non-trivial chunk — at a few thousand points the model's fixed
    bisection overhead rivals TAE's toy compressions. The two differ by
    only ~2× here, so each method's cost is its best of 3 dumps: a one-off
    scheduling spike on one rank must not decide the comparison."""
    d = rtm_snapshot(2500, (16, 48, 48))
    cands = _cands(d)

    def opt_seconds(method):
        return min(
            dump_snapshot(
                spark, d, 2500, outdir, method, cands, target_psnr_db=TARGET, n_partitions=2
            )["opt_seconds"].sum()
            for _ in range(3)
        )

    assert opt_seconds("model") < opt_seconds("tae")


def test_dump_unknown_method_raises(spark, outdir):
    d = rtm_snapshot(2000, SHAPE)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        dump_snapshot(spark, d, 2000, outdir, "bogus", _cands(d), n_partitions=1)


def test_traditional_requires_rel_eb(spark, outdir):
    d = rtm_snapshot(2000, SHAPE)
    with pytest.raises(ValueError, match="needs traditional_abs_eb"):
        dump_snapshot(spark, d, 2000, outdir, "traditional", _cands(d), n_partitions=1)


def test_run_dump_study_structure(spark, outdir, monkeypatch):
    made = []

    def counted(t, shape):
        made.append(t)
        return rtm_snapshot(t, shape)

    monkeypatch.setattr(data_dump, "rtm_snapshot", counted)
    pdf = run_dump_study(
        spark, [1200, 2400], SHAPE, outdir, target_psnr_db=TARGET, n_partitions=2
    )
    assert made == [1200, 2400]  # each snapshot generated once
    assert set(pdf["method"]) == {"traditional", "tae", "model"}
    assert len(pdf) == 6
    assert (pdf["total_seconds"] > 0).all()
    assert (pdf["snapshot_psnr"] >= TARGET - 2.0).all()
    # raw files exist alongside compressed partitions
    assert glob.glob(os.path.join(outdir, "t1200_raw.bin"))
    # compressed dumps are smaller than raw
    raw_bytes = 4 * np.prod(SHAPE)
    assert (pdf["nbytes"] < raw_bytes).all()
