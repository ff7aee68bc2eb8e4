"""Workload ``dump``: in-situ dumping of the dump study's RTM snapshots.

One pass calls ``data_dump.dump_snapshot`` with the in-situ methods ``tae``
and ``model`` in turn on every fourth snapshot of the dump study (5 of its
17: (32, 96, 96), t = 200..3400 step 800): 8 partitions, a 56 dB snapshot
floor, candidates from ``candidate_abs_ebs`` on the first snapshot's range,
and no I/O throttle (it only sleeps), so bytes are reported instead. Files
are real and fsync'd, written under the run's scratch directory. Every
fourth snapshot keeps the study's range of wavefront radii, first to last,
at under a third of the cost of all 17, which the benchmark's time budget
needs.

After each pass, untimed: every partition file is read back with
``read_partition_file`` and checked against its source slab, and the model
ranks are replayed to compare the model's estimates with what was written.
"""
from __future__ import annotations

import math
import os
import shutil
import statistics
import time

import numpy as np

from harness import (
    JobCounter, field_seed, mean_rel_err_pct, median_time, quantile, start_spark, within_bound,
)
import replay

SHAPE = (32, 96, 96)
TIMESTEPS = tuple(range(200, 3401, 800))
METHODS = ("tae", "model")
N_PARTITIONS = 8
TARGET_PSNR_DB = 56.0
PREDICTOR = "lorenzo"
RTM_SEED = 530
#: Snapshots dumped (with both methods) to warm the session up.
WARMUP_SNAPSHOTS = 1


def snapshots(seed: int) -> dict[int, np.ndarray]:
    from repro.sci_data import rtm_snapshot

    return {t: rtm_snapshot(t, SHAPE, seed=field_seed(RTM_SEED, seed)) for t in TIMESTEPS}


def _range(a: np.ndarray) -> float:
    d = np.asarray(a, np.float64)
    return float(d.max() - d.min())


class _Dumper:
    def __init__(self, spark, snaps) -> None:
        from repro.usecases.data_dump import candidate_abs_ebs

        self.spark = spark
        self.snaps = snaps
        self.cands = candidate_abs_ebs(_range(snaps[TIMESTEPS[0]]))

    def dump(self, t: int, method: str, outdir: str):
        from repro.usecases.data_dump import dump_snapshot

        return dump_snapshot(
            self.spark, self.snaps[t], t, outdir, method,
            target_psnr_db=TARGET_PSNR_DB, predictor=PREDICTOR,
            n_partitions=N_PARTITIONS, candidates_abs=self.cands,
            io_bytes_per_second=None,
        )


def run(ctx) -> dict:
    t0 = time.perf_counter()
    spark = ctx.spark = start_spark(ctx.run_dir)
    session_s = time.perf_counter() - t0
    gen_s, snaps = median_time(lambda: snapshots(ctx.seed))
    dumper = _Dumper(spark, snaps)
    t0 = time.perf_counter()
    warm = str(ctx.run_dir.sub("warmup"))
    for t in TIMESTEPS[:WARMUP_SNAPSHOTS]:
        for method in METHODS:
            dumper.dump(t, method, warm)
    shutil.rmtree(warm)
    res = {"setup_s": session_s + gen_s + (time.perf_counter() - t0)}

    counter = JobCounter(spark)
    walls, snap_walls, counts, first = [], [], [], None
    start = time.perf_counter()
    n = 0
    while not walls or time.perf_counter() - start < ctx.seconds:
        outdir = str(ctx.run_dir.sub(f"pass{n}"))
        rows = {}
        t_pass = time.perf_counter()
        for t in TIMESTEPS:
            for method in METHODS:
                with counter.group("dump") as c:
                    t0 = time.perf_counter()
                    try:
                        rows[(t, method)] = dumper.dump(t, method, outdir)
                    except Exception as exc:  # every rank of the snapshot fails
                        for _ in range(N_PARTITIONS):
                            ctx.checks.check(False, f"dump t={t} {method} raised {exc!r}")
                    snap_walls.append(time.perf_counter() - t0)
                counts.append(c)
        walls.append(time.perf_counter() - t_pass)
        summary = check_pass(ctx, dumper, rows, outdir)
        if first is None:
            first = summary
        shutil.rmtree(outdir)
        n += 1
    res["walls"] = walls
    res["spark_counts"] = counts_medians(counts)
    res["rate_err_pct"] = first["rate_err_pct"]
    if ctx.trace:
        res["accuracy"] = first["accuracy"]
    res["extra"] = {
        "snapshot_p50_s": quantile(snap_walls, 0.5),
        "snapshot_p90_s": quantile(snap_walls, 0.9),
        "snapshot_dumps": len(snap_walls),
        "dump_bytes": first["disk_bytes"],
        "psnr_floor_margin_db": first["min_psnr_db"] - TARGET_PSNR_DB,
    }
    if ctx.trace:
        res["layers"] = traced_pass(ctx, dumper, walls, snap_walls, first)
        res["layers"]["spark.session_s"] = session_s
    return res


def check_pass(ctx, dumper, rows, outdir) -> dict:
    """Read back and check every partition file, and compare the model's
    bit-rate estimate at each rank's bound with the bytes the rank
    accounted. A traced run also replays the model ranks' compression."""
    from repro import analysis
    from repro.compressor import pipeline
    from repro.core.model import RatioQualityModel
    from repro.core.sampling import sample_error_report
    from repro.sparklayer.chunks import chunk_rows, chunk_to_array
    from repro.usecases.data_dump import read_partition_file

    disk = {m: 0 for m in METHODS}
    accounted = {m: 0 for m in METHODS}
    rel = {"huff_err": [], "huff_ll_err": [], "psnr_err": [], "ssim_err": []}
    sample, snap_psnr = [], []
    for (t, method), pdf in rows.items():
        slabs = {
            int(r["chunk_id"]): chunk_to_array(r)
            for r in chunk_rows("RTM", str(t), dumper.snaps[t], N_PARTITIONS)
        }
        ctx.checks.check(
            sorted(pdf["chunk_id"]) == sorted(slabs), f"dump t={t} {method}: ranks {list(pdf['chunk_id'])}"
        )
        accounted[method] += int(pdf["nbytes"].sum())
        mse = float((pdf["mse"] * pdf["n_points"]).sum() / pdf["n_points"].sum())
        vrange = float(pdf["vmax"].max() - pdf["vmin"].min())
        snap_psnr.append(math.inf if mse == 0 else 10 * math.log10(vrange * vrange / mse))
        for _, r in pdf.iterrows():
            cid, eb = int(r["chunk_id"]), float(r["eb_abs"])
            path = os.path.join(outdir, f"t{t}_{method}_p{cid}.bin")
            try:
                disk[method] += os.path.getsize(path)
                rec = read_partition_file(path)
                slab = slabs[cid]
                err = float(np.max(np.abs(slab.astype(np.float64) - rec)))
                ok = rec.shape == slab.shape and within_bound(err, eb)
            except (OSError, KeyError, ValueError, AssertionError) as exc:
                err, ok, rec = repr(exc), False, None
            ctx.checks.check(
                ok and math.isfinite(r["psnr"]), f"dump t={t} {method} p{cid}: max err {err} vs eb {eb}"
            )
            if rec is None:
                continue
            # the model the program builds for this rank (same seed), at the
            # bound the rank used
            e = RatioQualityModel(slab, PREDICTOR, seed=t + cid).estimate(eb)
            rel["huff_ll_err"].append(8.0 * int(r["nbytes"]) / slab.size / e["bitrate_ll"])
            if method != "model" or not ctx.trace:
                continue
            c = pipeline.compress(slab, PREDICTOR, eb)
            ctx.checks.check(
                c.nbytes_lossless == int(r["nbytes"]),
                f"dump t={t} p{cid}: replayed {c.nbytes_lossless} B vs accounted {int(r['nbytes'])} B",
            )
            rel["huff_err"].append(c.bitrate(lossless=False) / e["bitrate_huff"])
            rel["psnr_err"].append(float(r["psnr"]) / e["psnr"])
            rel["ssim_err"].append((1.0 - analysis.ssim_global(slab, rec)) / (1.0 - e["ssim"]))
            sample.append(sample_error_report(slab, PREDICTOR, rate=0.01, seed=t + cid)["sample_err"])
    out = {
        "rate_err_pct": mean_rel_err_pct(rel)["huff_ll_err"],
        "disk_bytes": sum(disk.values()),
        "disk": disk,
        "accounted": accounted,
        "min_psnr_db": min(snap_psnr),
        "rows": rows,
    }
    if ctx.trace:
        out["accuracy"] = mean_rel_err_pct(rel) | {"sample_err": 100.0 * statistics.fmean(sample)}
    return out


def traced_pass(ctx, dumper, walls, snap_walls, first) -> dict:
    """Per-rank phase columns of the measured pass, then a driver-side
    replay of each rank's work with one span per public call."""
    from repro.sparklayer.chunks import chunk_rows, chunk_to_array

    tr = ctx.tracer
    rows = first["rows"]
    phase = {k: 0.0 for k in ("opt", "compress", "io")}
    per_method_opt = {m: 0.0 for m in METHODS}
    rank_work = 0.0
    for (t, method), pdf in rows.items():
        for k in phase:
            phase[k] += float(pdf[f"{k}_seconds"].max())
        per_method_opt[method] += float(pdf["opt_seconds"].max())
        rank_work += float(pdf[["opt_seconds", "compress_seconds", "io_seconds"]].to_numpy().sum())
    snap_total = sum(snap_walls[: len(rows)])

    tr.pass_id = 1
    t0 = time.perf_counter()
    outdir = str(ctx.run_dir.sub("traced"))
    with tr.span("dump.pass"):
        for t in TIMESTEPS:
            for method in METHODS:
                with tr.span("dump.snapshot"):
                    dumper.dump(t, method, outdir)
    traced_wall = time.perf_counter() - t0
    shutil.rmtree(outdir)

    tr.pass_id = 2
    counts_k = replay.new_counts()
    with tr.span("dump.replay"):
        for (t, method), pdf in rows.items():
            data = dumper.snaps[t]
            gr = _range(data)
            mse_budget = gr * gr * 10.0 ** (-TARGET_PSNR_DB / 10.0)
            cand = tuple(sorted(dumper.cands, reverse=True))
            for r in chunk_rows("RTM", str(t), data, N_PARTITIONS):
                arr, cid = chunk_to_array(r), int(r["chunk_id"])
                a64 = arr.astype(np.float64)
                if method == "tae":
                    eb = cand[-1]
                    for eb_try in cand:
                        _, rec = replay.compress(tr, counts_k, arr, PREDICTOR, eb_try)
                        if float(np.mean((a64 - rec) ** 2)) <= mse_budget:
                            eb = eb_try
                            break
                else:
                    model = replay.build_model(tr, counts_k, arr, PREDICTOR, t + cid)
                    with tr.span("model.invert_mse"):
                        eb = model.error_bound_for_mse(0.8 * mse_budget)
                replay.compress(tr, counts_k, arr, PREDICTOR, eb)

    untraced = statistics.median(walls)
    return {
        "spark.overhead_frac": 1.0 - rank_work / (snap_total * ctx.cores),
        "dump.snapshot_p50_s": quantile(snap_walls, 0.5),
        "dump.snapshot_p90_s": quantile(snap_walls, 0.9),
        "dump.opt_s": phase["opt"],
        "dump.compress_s": phase["compress"],
        "dump.io_s": phase["io"],
        "dump.exec_share": sum(phase.values()) / snap_total,
        "dump.tae.opt_s": per_method_opt["tae"],
        "dump.model.opt_s": per_method_opt["model"],
        "dump.disk_bytes": first["disk_bytes"],
        "dump.tae.disk_bytes": first["disk"]["tae"],
        "dump.model.disk_bytes": first["disk"]["model"],
        "dump.tae.accounted_bytes": first["accounted"]["tae"],
        "dump.model.accounted_bytes": first["accounted"]["model"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced_wall - untraced,
        **replay.as_metrics(counts_k),
    }


def counts_medians(counts) -> dict:
    return {k: statistics.median(c[k] for c in counts) for k in ("jobs", "stages", "tasks")}
