"""Benchmarks for the use-case harnesses (Tables E3–E5), including the
Spark-parallel dump path (one round — each call is a full Spark job) and the
fixed cost of one ``per_chunk`` job."""
import numpy as np
import pytest

from repro.analysis import value_range
from repro.sci_data import rtm_snapshot
from repro.sparklayer.chunks import chunk_rows, layout_chunks, per_chunk
from repro.usecases.data_dump import candidate_abs_ebs, dump_snapshot
from repro.usecases.insitu import budgeted_allocation, model_curves, per_snapshot_models
from repro.usecases.memory_target import plan_and_compress

SHAPE = (16, 48, 48)


@pytest.fixture(scope="module")
def snap():
    return rtm_snapshot(2000, SHAPE)


def test_memory_plan_and_compress(benchmark, snap):
    benchmark(plan_and_compress, snap, 3.0)


def test_insitu_allocation(benchmark):
    """The allocation alone, over curves built once outside the timing."""
    snaps = {t: rtm_snapshot(t, SHAPE) for t in (1000, 2000, 3000)}
    models = per_snapshot_models(snaps, "lorenzo", seed=0)
    rmax = max(m.value_range for m in models.values())
    curves = model_curves(models, np.geomspace(1e-5 * rmax, 0.3 * rmax, 41))
    benchmark(budgeted_allocation, curves, 2.0)


@pytest.mark.parametrize("method", ["tae", "model"])
def test_dump_snapshot_spark(benchmark, spark, tmp_path, method, snap):
    benchmark.pedantic(
        dump_snapshot,
        args=(spark, snap, 2000, str(tmp_path), method),
        kwargs={
            "n_partitions": 4,
            "target_psnr_db": 50.0,
            "candidates_abs": candidate_abs_ebs(value_range(snap)),
        },
        rounds=2,
        iterations=1,
    )


def test_per_chunk_noop_job(benchmark, spark):
    """One ``per_chunk`` job whose per-chunk work does nothing, over the
    8-slab layout of one dump snapshot (32x96x96 RTM, 1.2 MB): the per-job
    cost Spark adds to every dumped snapshot."""
    rows = chunk_rows("RTM", "2000", rtm_snapshot(2000, (32, 96, 96)), 8)

    def job():
        chunks = layout_chunks(spark, rows)
        return per_chunk(chunks, lambda row, arr: [{"chunk_id": row["chunk_id"]}]).collect()

    out = benchmark.pedantic(job, rounds=20, iterations=1, warmup_rounds=2)
    assert sorted(r["chunk_id"] for r in out) == list(range(8))
