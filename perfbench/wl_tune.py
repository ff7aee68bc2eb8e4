"""Workload ``tune``: the paper's own path, the model instead of the loop.

Single process, no Spark. For each of the 17 bench fields one pass builds
rate-distortion curves for 3 predictors x 13 bounds from the model
(``predictor_selection.rd_curves``), selects the predictor for 2.0 bits per
point, and inverts that predictor's model for 2.0 bits and for 56 dB.

After the timed passes, the chosen bounds are checked by real compression:
``max|x - x'| <= eb`` on every one, and the measured bit-rate, PSNR and SSIM
give the model's error at the bounds it chose.
"""
from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext

import numpy as np

from harness import MODEL_SEED, bench_fields, mean_rel_err_pct, median_time, within_bound
import replay

PREDICTORS = ("lorenzo", "interp", "regression")
EBS_REL = tuple(np.geomspace(1e-4, 1e-1, 13))
TARGET_BITS = 2.0
TARGET_PSNR_DB = 56.0


def tune_field(data, seed: int, tr=None):
    """One field's tuning → (predictor, eb for TARGET_BITS, eb for TARGET_PSNR_DB)."""
    from repro.core.model import RatioQualityModel
    from repro.usecases.predictor_selection import rd_curves, select_predictor

    span = tr.span if tr is not None else (lambda name: nullcontext())
    with span("model.rd_curves"):
        curves = rd_curves(data, PREDICTORS, EBS_REL, seed=seed)
    with span("model.select"):
        sel = select_predictor(curves, TARGET_BITS)
    with span("model.build"):
        model = RatioQualityModel(data, sel.predictor, seed=seed)
    with span("model.invert_bitrate"):
        eb_bits = model.error_bound_for_bitrate(TARGET_BITS)
    with span("model.invert_psnr"):
        eb_psnr = model.error_bound_for_psnr(TARGET_PSNR_DB)
    return sel.predictor, eb_bits, eb_psnr


def tune_all(fields, inputs, seed: int, checks, tr=None) -> list:
    """Tune every field; a field whose tuning raises is a failed check and
    reads None."""
    out = []
    for key in fields:
        try:
            out.append(tune_field(inputs[key], seed, tr))
        except Exception as exc:  # counted, and the pass goes on
            checks.check(False, f"tune {key} raised {exc!r}")
            out.append(None)
    return out


def run(ctx) -> dict:
    from repro import sci_data

    fields = [(s.dataset, s.field) for s in sci_data.FIELDS]
    seed = MODEL_SEED + ctx.seed
    gen_s, inputs = median_time(lambda: bench_fields(ctx.seed))
    t0 = time.perf_counter()
    first = tune_all(fields, inputs, seed, ctx.checks)
    res = {"setup_s": gen_s + (time.perf_counter() - t0)}

    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < ctx.seconds:
        t0 = time.perf_counter()
        chosen = tune_all(fields, inputs, seed, ctx.checks)
        walls.append(time.perf_counter() - t0)
        for key, a, b in zip(fields, first, chosen):
            ctx.checks.check(a == b, f"tune {key}: pass chose {b}, warm-up chose {a}")
    res["walls"] = walls
    res.update(check_bounds(ctx, fields, inputs, first, seed))
    if ctx.trace:
        res["layers"] = traced_pass(ctx, fields, inputs, seed, walls)
    return res


def check_bounds(ctx, fields, inputs, chosen, seed) -> dict:
    """Compress at every chosen bound (untimed). The error bound must hold;
    the measured bit-rate at the 2.0-bit bound gives the miss against the
    target. A traced run also compares measured with estimated metrics."""
    from repro.compressor import pipeline
    from repro.core.model import RatioQualityModel
    from repro.core.sampling import sample_error_report

    rel = {"huff_err": [], "huff_ll_err": [], "psnr_err": [], "ssim_err": []}
    sample, miss, psnrs = [], [], []
    for key, picked in zip(fields, chosen):
        if picked is None:
            continue
        pred, eb_bits, eb_psnr = picked
        data = inputs[key]
        ssim_ok = ctx.trace and data.ndim in (2, 3)
        model = RatioQualityModel(data, pred, seed=seed) if ctx.trace else None
        for eb, what in ((eb_bits, "bits"), (eb_psnr, "psnr")):
            m = pipeline.measure(data, pred, eb, with_ssim=ssim_ok)
            ok = within_bound(m["max_err"], eb) and all(math.isfinite(v) for v in (eb, m["bitrate_ll"], m["psnr"]))
            ctx.checks.check(ok, f"tune {key} {pred} {what}: eb={eb} max_err={m['max_err']}")
            if what == "bits":
                miss.append(abs(m["bitrate_ll"] / TARGET_BITS - 1.0))
            else:
                psnrs.append(m["psnr"])
            if model is None:
                continue
            e = model.estimate(eb)
            rel["huff_err"].append(m["bitrate_huff"] / e["bitrate_huff"])
            rel["huff_ll_err"].append(m["bitrate_ll"] / e["bitrate_ll"])
            rel["psnr_err"].append(m["psnr"] / e["psnr"])
            if ssim_ok:
                rel["ssim_err"].append((1.0 - m["ssim"]) / (1.0 - e["ssim"]))
        if ctx.trace:
            sample.append(sample_error_report(data, pred, rate=0.01, seed=seed)["sample_err"])
    out = {
        "rate_err_pct": 100.0 * statistics.fmean(miss),
        "extra": {"psnr_floor_margin_db": min(psnrs) - TARGET_PSNR_DB},
    }
    if ctx.trace:
        out["accuracy"] = mean_rel_err_pct(rel) | {"sample_err": 100.0 * statistics.fmean(sample)}
    return out


def traced_pass(ctx, fields, inputs, seed: int, walls) -> dict:
    """The pass with spans around each public call, then a replay of what
    ``rd_curves`` does inside (one model build and 13 estimates per
    predictor)."""
    tr = ctx.tracer
    tr.pass_id = 1
    t0 = time.perf_counter()
    with tr.span("tune.pass"):
        tune_all(fields, inputs, seed, ctx.checks, tr)
    traced_wall = time.perf_counter() - t0
    tr.pass_id = 2
    counts = replay.new_counts()
    with tr.span("tune.replay"):
        for key in fields:
            for p in PREDICTORS:
                model = replay.build_model(tr, counts, inputs[key], p, seed)
                for ebr in EBS_REL:
                    with tr.span("model.estimate"):
                        model.estimate(model.abs_bound(ebr))
    untraced = statistics.median(walls)
    return {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced_wall - untraced,
        **replay.as_metrics(counts),
    }
