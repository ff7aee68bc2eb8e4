"""Repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Workloads (see the ``wl_*`` modules and ``perfbench/README.md``):

* ``table2`` -- the Table II job on all 17 bench fields (Spark);
* ``dump``   -- in-situ dumps of 5 RTM snapshots with ``tae`` and ``model``;
* ``tune``   -- model-only predictor selection and bound inversion. It is
  not listed in ``BENCHMARK.json`` (the benchmark's time budget holds two
  Spark workloads only) but runs the same way.

With ``--trace 0`` a run measures the end-to-end metrics with no spans; with
``--trace 1`` it also makes one traced pass and a driver-side replay, and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Span records are
written to ``.perfbench_work/traces/``.
"""
from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("table2", "tune", "dump")

#: Reported by every workload with --trace 0 (all in BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rate_err_pct", "%"),
)
ACCURACY = ("sample_err", "huff_err", "huff_ll_err", "psnr_err", "ssim_err")

#: Spans whose total time is a per-layer metric ("<span>_s").
SPAN_METRICS = (
    "kernel.predict", "kernel.huff_build", "kernel.huff_encode",
    "kernel.lossless", "kernel.decompress",
    "analysis.psnr", "analysis.ssim",
    "model.build", "model.estimate", "model.rd_curves",
    "model.invert_bitrate", "model.invert_psnr", "model.invert_mse",
)
LAYERS = ("spark", "kernel", "analysis", "model", "dump")

#: Reported by every workload with --trace 1; a layer a workload does not
#: use reads 0 there.
PER_LAYER = (
    ("spark.session_s", "s"), ("spark.corpus_s", "s"),
    ("spark.est_pass_s", "s"), ("spark.est_udf_s", "s"),
    ("spark.meas_pass_s", "s"), ("spark.meas_udf_s", "s"),
    ("spark.sample_pass_s", "s"), ("spark.join_agg_s", "s"),
    ("spark.overhead_frac", "ratio"),
    ("spark.jobs", "count"), ("spark.stages", "count"), ("spark.tasks", "count"),
    *((f"{s}_s", "s") for s in SPAN_METRICS),
    ("kernel.points", "count"), ("kernel.n_symbols", "count"),
    ("kernel.payload_bytes", "B"), ("kernel.bytes_in", "B"),
    ("model.sample_points", "count"), ("model.tae_ratio", "ratio"),
    *((f"model.{k}_pct", "%") for k in ACCURACY),
    ("model.psnr_floor_margin_db", "dB"),
    ("dump.snapshot_p50_s", "s"), ("dump.snapshot_p90_s", "s"),
    ("dump.opt_s", "s"), ("dump.compress_s", "s"), ("dump.io_s", "s"),
    ("dump.exec_share", "ratio"),
    ("dump.tae.opt_s", "s"), ("dump.model.opt_s", "s"),
    ("dump.disk_bytes", "B"),
    ("dump.tae.disk_bytes", "B"), ("dump.model.disk_bytes", "B"),
    ("dump.tae.accounted_bytes", "B"), ("dump.model.accounted_bytes", "B"),
    ("dump.psnr_floor_margin_db", "dB"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
)


class Context:
    def __init__(self, args, run_dir: harness.RunDir) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.run_dir = run_dir
        self.cores = harness.SPARK_CORES
        self.checks = harness.Checks()
        self.tracer = harness.Tracer()
        self.spark = None


def end_to_end(res: dict) -> dict[str, float]:
    return {
        "setup_s": res["setup_s"],
        "wall_s": statistics.median(res["walls"]),
        "rate_err_pct": res["rate_err_pct"],
    }


def per_layer(ctx: Context, res: dict) -> dict[str, float]:
    totals = ctx.tracer.totals()
    out = {name: 0.0 for name, _ in PER_LAYER}
    for s in SPAN_METRICS:
        out[f"{s}_s"] = totals.get(s, {}).get("total_s", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if name.startswith(layer + ".")
        )
    for k, v in res.get("spark_counts", {}).items():
        out[f"spark.{k}"] = v
    for k, v in res["accuracy"].items():
        out[f"model.{k}_pct"] = v
    extra = res.get("extra", {})
    if "psnr_floor_margin_db" in extra:
        layer = "dump" if ctx.workload == "dump" else "model"
        out[f"{layer}.psnr_floor_margin_db"] = extra["psnr_floor_margin_db"]
    out.update(res["layers"])
    return out


def report(ctx: Context, res: dict, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Human-readable lines (stdout, before the JSON line)."""
    c = ctx.checks
    print(f"# workload={ctx.workload} seed={ctx.seed} trace={int(ctx.trace)} "
          f"passes={len(res['walls'])} walls_s={[round(w, 3) for w in res['walls']]}")
    print(f"# error_rate = {c.failed}/{c.attempted} = {c.failed / max(1, c.attempted):.4g}")
    for k, v in sorted(res.get("extra", {}).items()):
        print(f"# {k} = {v:.6g}")
    for k, v in res.get("accuracy", {}).items():
        print(f"# model {k} = {v:.6g} %")
    if "spark_counts" in res:
        print(f"# spark per {'snapshot' if ctx.workload == 'dump' else 'pass'}: {res['spark_counts']}")
    if ctx.trace:
        print("# span totals (s): name count total self")
        for name, t in sorted(ctx.tracer.totals().items()):
            print(f"#   {name:24s} {t['count']:6d} {t['total_s']:10.4f} {t['self_s']:10.4f}")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    harness.require_program()
    # a terminated run still stops Spark and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import wl_dump
    import wl_table2
    import wl_tune

    module = {"table2": wl_table2, "tune": wl_tune, "dump": wl_dump}[args.workload]
    run_dir = harness.RunDir()
    ctx = Context(args, run_dir)
    t_start = time.perf_counter()
    try:
        res = module.run(ctx)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: workload {args.workload} raised; no result", file=sys.stderr)
        return 1
    finally:
        if ctx.spark is not None:
            harness.stop_spark(ctx.spark)
        run_dir.close()

    if ctx.trace:
        ctx.tracer.write(harness.WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
        units = dict(PER_LAYER)
        metrics = per_layer(ctx, res)
    else:
        units = dict(END_TO_END)
        metrics = end_to_end(res)
    report(ctx, res, metrics, units)
    print(f"# run took {time.perf_counter() - t_start:.1f} s")
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: no result, non-finite metrics: {bad}", file=sys.stderr)
        return 1
    c = ctx.checks
    result = {
        "correct": c.failed == 0 and c.attempted > 0,
        "attempted": max(1, c.attempted),
        "failed": c.failed if c.attempted else 1,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
