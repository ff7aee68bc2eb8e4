"""Table E5 (≙ Fig. 14 / §V-F): overall data-dumping performance with the
Spark-parallel dump harness (parallel-HDF5 stand-in).

Per snapshot and method (traditional / in-situ TAE / ours): optimization,
compression and I/O wall time (max over ranks), total dump time, dumped
bytes, and the achieved quality floor; summary reports max dump time and
the ours-vs-X speedups (paper: up to 3.4× vs traditional, 2.2× vs TAE).

Run: ``spark-submit jobs/usecase_dump.py [--outdir DIR]``.
"""
from __future__ import annotations

import argparse
import tempfile

import pandas as pd

from repro.usecases.data_dump import run_dump_study

from _common import emit, get_spark

SHAPE = (32, 96, 96)
TIMESTEPS = tuple(range(200, 3401, 200))
TARGET_PSNR = 56.0


#: Per-rank I/O bandwidth model (bytes/s) — restores the paper's regime
#: where dump time is I/O-dominated (see data_dump.dump_snapshot docstring).
IO_BPS = 100_000.0


def main(spark, outdir: str | None = None) -> pd.DataFrame:
    outdir = outdir or tempfile.mkdtemp(prefix="repro_dump_")
    pdf = run_dump_study(
        spark, TIMESTEPS, SHAPE, outdir,
        target_psnr_db=TARGET_PSNR, n_partitions=8,
        io_bytes_per_second=IO_BPS,
    )
    emit("tableE5_dump_per_snapshot", pdf)
    by = pdf.groupby("method")
    summary = pd.DataFrame(
        dict(
            mean_total_s=by["total_seconds"].mean(),
            max_total_s=by["total_seconds"].max(),
            mean_opt_s=by["opt_seconds"].mean(),
            mean_compress_s=by["compress_seconds"].mean(),
            mean_io_s=by["io_seconds"].mean(),
            total_bytes=by["nbytes"].sum(),
            min_snapshot_psnr=by["snapshot_psnr"].min(),
        )
    ).reset_index()
    ours_max = summary.loc[summary["method"] == "model", "max_total_s"].iloc[0]
    summary["speedup_vs_ours_max"] = summary["max_total_s"] / ours_max
    raw_mean = float(pdf["raw_io_seconds"].mean())
    summary["raw_dump_mean_s"] = raw_mean
    emit("tableE5_dump_summary", summary)
    return summary


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()
    main(get_spark("dump"), args.outdir)
