"""Workload ``table2``: the Table II job, timed as it is.

One pass is ``jobs/table2_accuracy.main(spark, "bench")``: 17 fields x 4
chunks, Lorenzo, the 7-bound sweep. Its inputs are generated once in set-up
and handed to the job through its ``sci_data`` reference; its ``emit`` sink
is redirected so ``results/*.csv`` is never written.

The job caches its chunk and join DataFrames and never drops them. Spark
matches a later call's identical plans against those caches, so a second
call in one session would skip the estimate and measure passes entirely.
Every pass therefore starts from an empty cache, as a fresh run of the job
does.
"""
from __future__ import annotations

import math
import statistics
import time
import types

import pandas as pd

from harness import ROOT, MODEL_SEED, JobCounter, bench_fields, median_time, start_spark, within_bound
import replay

CSV = ROOT / "results" / "table2_accuracy_bench.csv"
COLUMNS = (
    "sample_err", "huff_err", "lossless_err", "huff_ll_err",
    "psnr_err", "ssim_err", "ssim_dist_err",
)
#: Fields of the warm-up call: enough to start every Python worker and run
#: each of the job's stages once, far cheaper than a whole cold pass.
WARMUP_FIELDS = slice(3, 5)
PREDICTOR = "lorenzo"


class _Job:
    """The Table II job module with its inputs and output sink swapped."""

    def __init__(self, inputs) -> None:
        from repro import sci_data
        import table2_accuracy

        self.mod = table2_accuracy
        self.fields = sci_data.FIELDS
        self.inputs = inputs
        self.mod.emit = lambda name, pdf, float_fmt="%.4g": None
        self.use(self.fields)

    def use(self, fields) -> None:
        self.mod.sci_data = types.SimpleNamespace(
            FIELDS=fields, generate=lambda ds, f, scale: self.inputs[(ds, f)]
        )

    def main(self, spark) -> pd.DataFrame:
        spark.catalog.clearCache()
        return self.mod.main(spark, "bench", PREDICTOR)


def check_table(checks, out: pd.DataFrame, seed: int, fields) -> None:
    """Each output row is one check: finite columns, SSIM only where the
    field has it, and at seed 0 every value equal to the committed CSV."""
    has_ssim = {(s.dataset, s.field): s.has_ssim for s in fields}
    ref = pd.read_csv(CSV, dtype={"dataset": str, "field": str}) if seed == 0 else None
    checks.check(len(out) == len(fields) + 1, f"table2: {len(out)} rows")
    for i, row in out.iterrows():
        key = (str(row["dataset"]), str(row["field"]))
        ok = True
        for c in COLUMNS:
            v = float(row[c])
            ssim_col = c.startswith("ssim")
            if ssim_col and key in has_ssim and not has_ssim[key]:
                ok &= math.isnan(v)
            else:
                ok &= math.isfinite(v) and v >= 0
            if ref is not None and i < len(ref):
                r = float(ref.loc[i, c])
                ok &= (math.isnan(r) and math.isnan(v)) or abs(r - v) <= 1e-9
        if ref is not None:
            ok &= i < len(ref) and key == (ref.loc[i, "dataset"], ref.loc[i, "field"])
        checks.check(ok, f"table2 row {key} at seed {seed}: {row.to_dict()}")


def accuracy(out: pd.DataFrame) -> dict[str, float]:
    """The Eq. 20 "Average" row, in percent."""
    avg = out[out["dataset"] == "Average"].iloc[0]
    return {c: float(avg[c]) for c in ("sample_err", "huff_err", "huff_ll_err", "psnr_err", "ssim_err")}


def run(ctx) -> dict:
    t0 = time.perf_counter()
    spark = ctx.spark = start_spark(ctx.run_dir)
    session_s = time.perf_counter() - t0
    gen_s, inputs = median_time(lambda: bench_fields(ctx.seed))
    job = _Job(inputs)
    counter = JobCounter(spark)
    t0 = time.perf_counter()
    job.use(job.fields[WARMUP_FIELDS])
    job.main(spark)
    job.use(job.fields)
    warm_s = time.perf_counter() - t0
    res = {"setup_s": session_s + gen_s + warm_s}

    walls, counts, out = [], [], None
    start, passes = time.perf_counter(), 0
    while not passes or time.perf_counter() - start < ctx.seconds:
        passes += 1
        with counter.group("table2") as n:
            t0 = time.perf_counter()
            try:
                pct = job.main(spark)
            except Exception as exc:  # every row of the pass fails
                for _ in range(len(job.fields) + 2):
                    ctx.checks.check(False, f"table2 pass raised {exc!r}")
                continue
            walls.append(time.perf_counter() - t0)
        out = pct
        counts.append(n)
        check_table(ctx.checks, out, ctx.seed, job.fields)
    if out is None:
        raise RuntimeError("every table2 pass raised")
    res["walls"] = walls
    res["spark_counts"] = counts[-1]
    res["accuracy"] = accuracy(out)
    res["rate_err_pct"] = res["accuracy"]["huff_ll_err"]
    if ctx.trace:
        res["layers"] = traced_pass(ctx, job, inputs, walls)
        res["layers"]["spark.session_s"] = session_s
    spark.catalog.clearCache()
    return res


def traced_pass(ctx, job: _Job, inputs, walls) -> dict:
    """The job's stages one at a time, each forced with an action, then a
    driver-side replay of the executor work on the same chunks."""
    from pyspark.sql import functions as F
    from repro.config import EB_SWEEP_REL
    from repro.sparklayer import estimate_metrics, measure_metrics, sample_reports
    from repro.sparklayer.chunks import chunk_rows, chunk_to_array

    spark, tr, mod = ctx.spark, ctx.tracer, job.mod
    spark.catalog.clearCache()
    tr.pass_id = 1
    t0 = time.perf_counter()
    with tr.span("table2.pass"):
        with tr.span("spark.corpus"):
            chunks = mod.build_corpus(spark, "bench").cache()
            chunks.count()
        with tr.span("spark.est_pass"):
            est = estimate_metrics(chunks, [PREDICTOR], EB_SWEEP_REL, seed=MODEL_SEED).cache()
            est.count()
        with tr.span("spark.meas_pass"):
            meas = measure_metrics(chunks, [PREDICTOR], EB_SWEEP_REL).cache()
            meas.count()
        with tr.span("spark.sample_pass"):
            samp = sample_reports(chunks, PREDICTOR, rate=0.01, seed=MODEL_SEED).cache()
            samp.count()
        saved = {k: getattr(mod, k) for k in ("build_corpus", "estimate_metrics", "measure_metrics", "sample_reports")}
        mod.build_corpus = lambda *a, **k: chunks
        mod.estimate_metrics = lambda *a, **k: est
        mod.measure_metrics = lambda *a, **k: meas
        mod.sample_reports = lambda *a, **k: samp
        try:
            with tr.span("spark.join_agg"):
                out = mod.main(spark, "bench", PREDICTOR)
        finally:
            for k, v in saved.items():
                setattr(mod, k, v)
    traced_wall = time.perf_counter() - t0
    check_table(ctx.checks, out, ctx.seed, job.fields)
    est_udf = float(est.agg(F.sum("seconds")).first()[0])
    meas_udf = float(meas.agg(F.sum("seconds")).first()[0])
    spark.catalog.clearCache()

    tr.pass_id = 2
    counts = replay.new_counts()
    with tr.span("table2.replay"):
        for spec in job.fields:
            arr_full = inputs[(spec.dataset, spec.field)]
            for row in chunk_rows(spec.dataset, spec.field, arr_full, 4):
                arr = chunk_to_array(row)
                vrange = float(arr.astype("float64").max() - arr.astype("float64").min())
                ssim_ok = arr.ndim in (2, 3)
                model = replay.build_model(tr, counts, arr, PREDICTOR, MODEL_SEED)
                for ebr in EB_SWEEP_REL:
                    with tr.span("model.estimate"):
                        model.estimate(model.abs_bound(ebr))
                for ebr in EB_SWEEP_REL:
                    eb = ebr * vrange
                    err = replay.measure(tr, counts, arr, PREDICTOR, eb, ssim_ok)
                    ctx.checks.check(within_bound(err, eb), f"table2 replay {spec.dataset}/{spec.field} max err {err} > {eb}")

    untraced = statistics.median(walls)
    pass_wall = sum(tr.total(n) for n in ("spark.est_pass", "spark.meas_pass"))
    return {
        "spark.corpus_s": tr.total("spark.corpus"),
        "spark.est_pass_s": tr.total("spark.est_pass"),
        "spark.est_udf_s": est_udf,
        "spark.meas_pass_s": tr.total("spark.meas_pass"),
        "spark.meas_udf_s": meas_udf,
        "spark.sample_pass_s": tr.total("spark.sample_pass"),
        "spark.join_agg_s": tr.total("spark.join_agg"),
        "spark.overhead_frac": 1.0 - (est_udf + meas_udf) / (pass_wall * ctx.cores),
        "model.tae_ratio": meas_udf / est_udf,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced_wall - untraced,
        **replay.as_metrics(counts),
    }
