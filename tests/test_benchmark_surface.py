"""The names and call shapes the benchmark (``perfbench/``) calls, with no
chunk job in Spark: ROADMAP's "The benchmark's surface is fixed" list.

A change that renames a function, a keyword or an estimate key the
benchmark reads fails here, in Tier-1, before a benchmark run fails on it.
Spark-side calls are checked by binding their signature to the call the
benchmark makes (``measure_metrics``'s ``seconds`` on chunks run in this
process); the others are called on small fields.
"""
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import analysis, sci_data
from repro.compressor import huffman, pipeline, rle
from repro.compressor.predictors import get_predictor
from repro.config import SHAPES
from repro.core.model import RatioQualityModel
from repro.core.sampling import sample_error_report
from repro.sparklayer import estimate_metrics, measure_metrics, sample_reports
from repro.sparklayer.chunks import chunk_rows, chunk_to_array
from repro.usecases import data_dump
from repro.usecases.predictor_selection import rd_curves, select_predictor
from tests.stand_ins import LocalChunks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))
import _common  # noqa: E402
import table2_accuracy  # noqa: E402

SPARK = object()  # stands in for the session and the chunk RDD in a bind


def _binds(fn, *args, **kwargs) -> None:
    """``fn`` accepts this call (raises ``TypeError`` otherwise)."""
    inspect.signature(fn).bind(*args, **kwargs)


def test_table2_job_surface():
    _binds(table2_accuracy.main, SPARK, "bench", "lorenzo")
    _binds(table2_accuracy.main, SPARK)
    _binds(table2_accuracy.build_corpus, SPARK, "bench")
    # the module globals the benchmark's traced pass swaps
    for name in ("estimate_metrics", "measure_metrics", "sample_reports", "build_corpus"):
        assert callable(getattr(table2_accuracy, name)), name
    assert callable(table2_accuracy.emit)
    assert table2_accuracy.sci_data.FIELDS and callable(table2_accuracy.sci_data.generate)
    _binds(estimate_metrics, SPARK, ["lorenzo"], (1e-3,), seed=7)
    _binds(measure_metrics, SPARK, ["lorenzo"], (1e-3,))
    _binds(sample_reports, SPARK, "lorenzo", rate=0.01, seed=7)


def test_measure_metrics_seconds_are_the_trial_stage_sums(spark, monkeypatch):
    """The traced pass sums ``measure_metrics``'s ``seconds``: finite, >= 0
    and on each row the sum of its trial's five stage seconds."""
    seen = []
    real = pipeline.trials

    def recorded(*args, **kwargs):
        for m in real(*args, **kwargs):
            seen.append(m)
            yield m

    monkeypatch.setattr(pipeline, "trials", recorded)
    rows = chunk_rows("SCALE", "PRES", sci_data.generate("SCALE", "PRES", "test"), 2)
    pdf = measure_metrics(LocalChunks(rows), ["lorenzo"], (1e-3, 1e-2)).toPandas()
    stages = ("predict_s", "huffman_s", "lossless_s", "decompress_s", "judge_s")
    assert len(pdf) == len(seen) == 2 * 2
    assert np.isfinite(pdf["seconds"]).all() and (pdf["seconds"] >= 0).all()
    assert list(pdf["seconds"]) == [sum(m[s] for s in stages) for m in seen]


def test_field_generation_surface():
    """The benchmark generates its inputs through ``FieldSpec.gen`` at the
    bench shapes and ``rtm_snapshot``, reads ``has_ssim``, and starts its
    session with ``jobs/_common.get_spark``."""
    assert len(sci_data.FIELDS) == 17
    assert {s.has_ssim for s in sci_data.FIELDS} == {True, False}
    for s in sci_data.FIELDS:
        assert s.has_ssim == (s.ndim in (2, 3))
        assert len(SHAPES["bench"][s.dataset]) == s.ndim
    spec = sci_data.FIELDS[0]
    assert spec.gen(SHAPES["test"][spec.dataset], spec.seed + 1).ndim == spec.ndim
    assert sci_data.rtm_snapshot(3, (4, 8, 8), seed=531).shape == (4, 8, 8)
    _binds(_common.get_spark, "perfbench")


@pytest.mark.parametrize("predictor", ["lorenzo", "interp", "regression"])
def test_compressed_field_from_its_eight_keywords(predictor):
    """The benchmark's replay builds the field stage by stage and then
    decompresses it."""
    arr = sci_data.generate("SCALE", "PRES", "test")
    eb = 1e-3 * analysis.value_range(arr)
    pred = get_predictor(predictor)
    codes, extras = pred.compress(arr, eb)
    code = huffman.build(codes)
    payload = code.encode(codes)
    assert isinstance(rle.lossless_bytes(payload), bytes)
    c = pipeline.CompressedField(
        predictor=predictor,
        eb_abs=float(eb),
        shape=tuple(arr.shape),
        codes=codes,
        extras=extras,
        payload=payload,
        code=code,
        side_bytes=pred.side_bytes(tuple(arr.shape)),
    )
    rec = pipeline.decompress(c)
    assert np.max(np.abs(np.asarray(arr, np.float64) - rec)) <= eb * (1 + 1e-9)
    assert len(code.symbols) > 0 and c.nbytes_lossless > 0 and c.bitrate(lossless=False) > 0


def test_dump_surface(tmp_path):
    _binds(
        data_dump.dump_snapshot, SPARK, np.zeros((2, 2, 2)), 0, str(tmp_path), "tae",
        target_psnr_db=56.0, predictor="lorenzo", n_partitions=8,
        candidates_abs=(1e-3,), io_bytes_per_second=None,
    )
    cands = data_dump.candidate_abs_ebs(2.0)
    assert len(cands) > 0 and all(0 < c < np.inf for c in cands)
    snap = sci_data.rtm_snapshot(3, (8, 16, 16), seed=530)
    rows = chunk_rows("RTM", "3", snap, 4)
    assert [int(r["chunk_id"]) for r in rows] == [0, 1, 2, 3]
    slab = chunk_to_array(rows[1])
    path = tmp_path / "t3_tae_p1.bin"
    path.write_bytes(pipeline.to_bytes(pipeline.compress(slab, "lorenzo", cands[0])))
    rec = data_dump.read_partition_file(str(path))
    assert rec.shape == slab.shape
    assert np.max(np.abs(np.asarray(slab, np.float64) - rec)) <= cands[0] * (1 + 1e-9)


def test_model_surface():
    arr = sci_data.generate("SCALE", "PRES", "test")
    model = RatioQualityModel(arr, "lorenzo", sample_rate=0.01, seed=7)
    assert model.errors.size > 0
    e = model.estimate(model.abs_bound(1e-3))
    for key in ("bitrate_huff", "bitrate_ll", "psnr", "ssim"):
        assert np.isfinite(e[key]), key
    for eb in (
        model.error_bound_for_bitrate(2.0),
        model.error_bound_for_psnr(56.0),
        model.error_bound_for_mse(0.8 * model.value_range**2 * 1e-5),
    ):
        assert 0 < eb <= model.value_range
    assert 0 <= sample_error_report(arr, "lorenzo", rate=0.01, seed=7)["sample_err"] < np.inf


def test_tuning_surface():
    arr = sci_data.generate("SCALE", "PRES", "test")
    ebs = tuple(np.geomspace(1e-4, 1e-1, 4))
    curves = rd_curves(arr, ("lorenzo", "interp", "regression"), ebs, seed=7)
    assert set(curves) == {"lorenzo", "interp", "regression"}
    assert select_predictor(curves, 2.0).predictor in curves


def test_analysis_surface():
    d = np.random.default_rng(0).normal(size=(16, 16))
    r = d + 1e-3
    assert analysis.psnr(d, r) == analysis.judge(d, r)["psnr"]
    assert 0 < analysis.ssim_global(d, r) <= 1
