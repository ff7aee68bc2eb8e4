"""Table E1 (≙ Fig. 9 / §V-D): optimization overhead — model vs
trial-and-error, averaged over the three RTM snapshots, 7 candidate error
bounds.

Ours: one 1% sampling pass + one 7-bound model curve (7 cheap estimates).
TAE: 7 full compression passes (prediction + Huffman + lossless). The paper
reports 18.7× on average; we print per-stage timings and the resulting
speedup.

Run: ``python jobs/usecase_overhead.py`` (stage timings are per-field wall
clock on the driver, one field at a time; no Spark session).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro import analysis, sci_data
from repro.compressor import huffman, rle
from repro.config import EB_SWEEP_REL
from repro.core.model import RatioQualityModel

from _common import emit

PREDICTOR = "lorenzo"


def time_model(data: np.ndarray, predictor: str, ebs_rel) -> dict:
    t0 = time.perf_counter()
    m = RatioQualityModel(data, predictor, seed=7)
    t_sample = time.perf_counter() - t0
    t0 = time.perf_counter()
    m.curve(m.abs_bound(np.asarray(ebs_rel)))
    t_est = time.perf_counter() - t0
    return {"sampling_s": t_sample, "estimate_s": t_est, "total_s": t_sample + t_est}


def time_tae(data: np.ndarray, predictor: str, ebs_rel) -> dict:
    """Trial-and-error: full compression per candidate, with the per-stage
    split (predictor+quantizer vs Huffman vs lossless) Fig. 9 shows."""
    from repro.compressor.predictors import get_predictor

    vrange = analysis.value_range(data)
    pred = get_predictor(predictor)
    t_pred = t_huff = t_ll = 0.0
    for ebr in ebs_rel:
        eb = ebr * vrange
        t0 = time.perf_counter()
        codes, _ = pred.compress(data, eb)
        t_pred += time.perf_counter() - t0
        t0 = time.perf_counter()
        code = huffman.build(codes)
        payload = code.encode(codes)
        t_huff += time.perf_counter() - t0
        t0 = time.perf_counter()
        rle.lossless_bytes(payload)
        t_ll += time.perf_counter() - t0
    return {
        "predictor_s": t_pred,
        "huffman_s": t_huff,
        "lossless_s": t_ll,
        "total_s": t_pred + t_huff + t_ll,
    }


def main() -> pd.DataFrame:
    rows = []
    for fld in ("1000", "2000", "3000"):
        data = sci_data.generate("RTM", fld, "bench")
        ours = time_model(data, PREDICTOR, EB_SWEEP_REL)
        tae = time_tae(data, PREDICTOR, EB_SWEEP_REL)
        rows.append(
            dict(
                field=f"RTM/{fld}",
                ours_sampling_s=ours["sampling_s"],
                ours_estimate_s=ours["estimate_s"],
                ours_total_s=ours["total_s"],
                tae_predictor_s=tae["predictor_s"],
                tae_huffman_s=tae["huffman_s"],
                tae_lossless_s=tae["lossless_s"],
                tae_total_s=tae["total_s"],
                speedup=tae["total_s"] / ours["total_s"],
            )
        )
    pdf = pd.DataFrame(rows)
    avg = pdf.mean(numeric_only=True).to_frame().T
    avg.insert(0, "field", "Average")
    avg["speedup"] = avg["tae_total_s"] / avg["ours_total_s"]
    pdf = pd.concat([pdf, avg], ignore_index=True)
    emit("tableE1_overhead", pdf)
    return pdf


if __name__ == "__main__":
    main()
