"""Benchmarks behind Table II: the model's one-time sampling + per-bound
estimation vs the measured (trial) pass it replaces, at bench scale, one
whole test-scale pass of the Table II job in Spark, and the fixed cost of
one ``per_chunk`` job over the job's bench corpus."""
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import sci_data
from repro.analysis import value_range
from repro.compressor import pipeline
from repro.config import EB_SWEEP_REL
from repro.core.model import RatioQualityModel
from repro.sparklayer.chunks import chunk_rows, layout_chunks, per_chunk

JOBS = Path(__file__).resolve().parent.parent / "jobs"


@pytest.fixture(scope="module")
def rtm():
    return sci_data.generate("RTM", "2000", "bench")


@pytest.fixture(scope="module")
def vrange(rtm):
    return value_range(rtm)


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_model_build(benchmark, rtm, pred):
    """One-time 1% sampling pass (the model's only data-dependent cost)."""
    benchmark(RatioQualityModel, rtm, pred, 0.01, seed=7)


@pytest.mark.parametrize("pred", ["lorenzo", "interp", "regression"])
def test_model_estimate_sweep(benchmark, rtm, vrange, pred):
    """All 7 error-bound estimates from one built model: ``phase_smear``
    per bound for every predictor, plus the predictor's σ² (Lorenzo's
    lattice residual, interp's quiet fractions, regression's Eq. 11)."""
    m = RatioQualityModel(rtm, pred, seed=7)

    benchmark(m.curve, np.asarray(EB_SWEEP_REL) * vrange)


def test_trial_single_eb(benchmark, rtm, vrange):
    """One trial-and-error unit: full compress + decompress + analysis."""
    benchmark(pipeline.measure, rtm, "lorenzo", 1e-3 * vrange)


def test_trial_sweep(benchmark, rtm, vrange):
    """One chunk's trial pass of the Table II job: the bench RTM field
    through ``pipeline.trials`` at every ``EB_SWEEP_REL`` bound, with SSIM
    (one check and one reference of the field, 7 trials)."""
    ebs = [r * vrange for r in EB_SWEEP_REL]
    out = benchmark(lambda: list(pipeline.trials(rtm, "lorenzo", ebs, with_ssim=True)))
    assert [m["eb_abs"] for m in out] == ebs


def test_model_invert_bitrate(benchmark, rtm):
    m = RatioQualityModel(rtm, "lorenzo", seed=7)
    benchmark(m.error_bound_for_bitrate, 2.0)


def test_model_invert_psnr(benchmark, rtm):
    m = RatioQualityModel(rtm, "lorenzo", seed=7)
    benchmark(m.error_bound_for_psnr, 56.0)


def test_table2_job_pass(benchmark, spark, monkeypatch):
    """One test-scale ``jobs/table2_accuracy.main`` (17 fields x 4 chunks,
    Lorenzo, 7 bounds) with its CSV sink stubbed: the executor pass plus
    the Eq. 20 aggregation, after one warm-up call."""
    sys.path.insert(0, str(JOBS))
    import table2_accuracy

    monkeypatch.setattr(table2_accuracy, "emit", lambda name, pdf, float_fmt="%.4g": None)
    out = benchmark.pedantic(
        table2_accuracy.main, args=(spark, "test"), rounds=5, iterations=1, warmup_rounds=1
    )
    assert len(out) == len(sci_data.FIELDS) + 1


def test_table2_corpus_noop_job(benchmark, spark):
    """One ``per_chunk`` job whose per-chunk work does nothing, over the
    bench corpus of Table II cut and laid out as ``build_corpus`` does it
    (17 fields x ``N_CHUNKS`` slabs, ``chunk_rows`` + ``layout_chunks``,
    the fields generated once outside the timing): what cutting the corpus
    and moving its chunks into the executors costs each pass."""
    sys.path.insert(0, str(JOBS))
    import table2_accuracy

    fields = {
        (spec.dataset, spec.field): sci_data.generate(spec.dataset, spec.field, "bench")
        for spec in sci_data.FIELDS
    }

    def job():
        rows = [
            r
            for (dataset, field), arr in fields.items()
            for r in chunk_rows(dataset, field, arr, table2_accuracy.N_CHUNKS)
        ]
        chunks = layout_chunks(spark, rows)
        return per_chunk(chunks, lambda row, arr: [{"chunk_id": row["chunk_id"]}]).collect()

    out = benchmark.pedantic(job, rounds=12, iterations=1, warmup_rounds=2)
    assert len(out) == len(fields) * table2_accuracy.N_CHUNKS
