"""Table E7: calibration of the lossless-stage constants of Eq. (4)/(5).

``ratio_model.MODEL_C1_BITS`` (bits per zero-run token) and
``ratio_model.MODEL_RMAX`` (the cap on the mean zero-run length) are the
only fitted constants of the ratio model's lossless term. This script
refits them against the measured lossless stage (each trial's
``bitrate_ll``) on Table II's own inputs: the seed-0 bench corpus, 17 fields x
``table2_accuracy.N_CHUNKS`` chunks, Lorenzo, the 7 bounds of
``EB_SWEEP_REL``, model seed 7.

The measurements do not depend on the constants, so each chunk is
compressed once (``pipeline.trials``) and its model built once; for every
(C1, RMAX) pair of the grid the model's curve is re-estimated with the pair
in place and scored by Table II's Eq. 20 errors (``table2_errors``). The
pair with the lowest average Huff+LL Err. is the calibrated one; the table
lists every pair, best first, with its Lossless Err. and Huff+LL Err.

Run: ``python jobs/calibrate_model.py`` (driver only, no Spark session).
"""
from __future__ import annotations

from unittest import mock

import numpy as np
import pandas as pd

from repro import sci_data
from repro.compressor import pipeline
from repro.config import EB_SWEEP_REL, SSIM_NDIMS
from repro.core import ratio_model
from repro.core.model import RatioQualityModel
from repro.sparklayer.chunks import chunk_rows

from _common import emit
from table2_accuracy import N_CHUNKS, table2_errors

PREDICTOR = "lorenzo"
#: C1 stops at 8 bits on purpose. Past it Table II's Huff+LL Err. keeps
#: falling slowly (to 16.34 % at C1 = 24, RMAX = 4096, its lowest) by
#: charging each zero run more than Zstandard spends on it, which inflates
#: the interp curves of use-case 1 at high bounds: Table E2's mean selection
#: regret rises from 0.22 dB at C1 <= 8 to 1.0 dB at 12 and 3.0 dB at 24.
C1_GRID = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
RMAX_GRID = (1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 32768.0)


def corpus_trials(scale: str = "bench") -> list[tuple[dict, RatioQualityModel, list[dict]]]:
    """Each chunk of Table II's corpus: its row keys, its model and its
    measured trials at every bound of ``EB_SWEEP_REL``."""
    out = []
    for spec in sci_data.FIELDS:
        data = sci_data.generate(spec.dataset, spec.field, scale)
        for row in chunk_rows(spec.dataset, spec.field, data, N_CHUNKS):
            arr = row["values"]
            model = RatioQualityModel(arr, PREDICTOR, seed=7)
            ebs = model.abs_bound(np.asarray(EB_SWEEP_REL))
            trials = pipeline.trials(arr, PREDICTOR, ebs, with_ssim=arr.ndim in SSIM_NDIMS)
            keys = {k: row[k] for k in ("dataset", "field", "chunk_id")}
            out.append((keys, model, list(trials)))
    return out


def score(corpus, c1: float, rmax: float) -> pd.Series:
    """Table II's average Eq. 20 errors with the lossless constants set to
    ``(c1, rmax)``, in percent."""
    rows = []
    with mock.patch.multiple(ratio_model, MODEL_C1_BITS=c1, MODEL_RMAX=rmax):
        for keys, model, meas in corpus:
            est = model.curve(model.abs_bound(np.asarray(EB_SWEEP_REL)))
            for i, m in enumerate(meas):
                rows.append(
                    keys
                    | {"e_huff": est["bitrate_huff"][i], "m_huff": m["bitrate_huff"]}
                    | {"e_ll": est["bitrate_ll"][i], "m_ll": m["bitrate_ll"]}
                    | dict.fromkeys(("sample_err", "e_psnr", "m_psnr", "e_ssim", "m_ssim"), np.nan)
                )
    errs = table2_errors(pd.DataFrame(rows))
    return 100 * errs[["huff_err", "lossless_err", "huff_ll_err"]].mean()


def main(scale: str = "bench") -> pd.DataFrame:
    corpus = corpus_trials(scale)
    table = pd.DataFrame(
        [{"c1_bits": c1, "rmax": rmax, **score(corpus, c1, rmax)} for c1 in C1_GRID for rmax in RMAX_GRID]
    )
    table = table.sort_values("huff_ll_err", kind="stable", ignore_index=True)
    table[["huff_err", "lossless_err", "huff_ll_err"]] = table[
        ["huff_err", "lossless_err", "huff_ll_err"]
    ].round(2)
    emit("tableE7_calibration", table)
    best = table.iloc[0]
    print(
        f"calibrated: MODEL_C1_BITS = {best['c1_bits']}, MODEL_RMAX = {best['rmax']} "
        f"(in use: {ratio_model.MODEL_C1_BITS}, {ratio_model.MODEL_RMAX})"
    )
    return table


if __name__ == "__main__":
    main()
