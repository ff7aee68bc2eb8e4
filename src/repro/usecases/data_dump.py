"""§V-F: overall data-management (dumping) performance — parallel-HDF5
stand-in on Spark.

Each RTM snapshot is split across ``n_partitions`` chunks (one per "MPI
rank"). Ranks are not Spark tasks: Spark runs them in
``min(n_partitions, defaultParallelism)`` tasks of one stage
(``chunks.layout_chunks``), and each rank's phases are timed inside its own
work, so the rank timings do not depend on how ranks share a task. Inside
executors each chunk is compressed and its compressed blob
(``pipeline.to_bytes``: header, codebook, side data and the zlib'd Huffman
bitstream) is written to its own file on the shared local filesystem (the
per-rank collective-write role of parallel HDF5). The bytes written are the
bytes accounted (``nbytes``), and ``read_partition_file`` decodes them back.
Three methods, as in Fig. 14:

* **traditional** — one static offline error bound for every snapshot (the
  worst-case bound from an offline study; its cost is not part of dumping);
* **tae** — in-situ trial-and-error: each rank test-compresses its chunk at
  5 candidate error bounds, measures PSNR, picks the cheapest bound meeting
  the target, then compresses for real (experimenting time = optimization);
* **model** — ours: each rank builds the ratio-quality model (1% sample)
  and inverts it for the PSNR target, then compresses once.

Per-phase wall time of a snapshot is the **max over ranks** (the parallel
barrier), as in an MPI collective dump.
"""
from __future__ import annotations

import os
import time
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from .. import analysis
from ..compressor import pipeline
from ..core.model import RatioQualityModel
from ..sci_data import rtm_snapshot
from ..sparklayer.chunks import array_to_chunks, per_chunk

__all__ = [
    "DUMP_SCHEMA",
    "dump_snapshot",
    "run_dump_study",
    "read_partition_file",
    "offline_worstcase_abs_eb",
    "candidate_abs_ebs",
    "CANDIDATE_SCALES",
]

#: The in-situ TAE candidate bound scales. The paper's candidates are five
#: shared ABSOLUTE bounds spanning four decades (ABS 1e-4 … 1e-8); ours are
#: these factors times one global reference range (the first snapshot's),
#: fixed for the whole run — shared absolute bounds are what expose the
#: per-snapshot heterogeneity the in-situ methods exploit, and the
#: factor-10 spacing is the "limited error bound granularity" the paper
#: holds against TAE.
CANDIDATE_SCALES: tuple[float, ...] = (3e-2, 3e-3, 3e-4, 3e-5, 3e-6)


def candidate_abs_ebs(reference_range: float) -> tuple[float, ...]:
    """The five shared absolute candidate bounds for a dump run."""
    return tuple(s * reference_range for s in CANDIDATE_SCALES)

DUMP_SCHEMA = T.StructType(
    [
        T.StructField("t", T.IntegerType(), False),
        T.StructField("method", T.StringType(), False),
        T.StructField("chunk_id", T.IntegerType(), False),
        T.StructField("opt_seconds", T.DoubleType(), False),
        T.StructField("compress_seconds", T.DoubleType(), False),
        T.StructField("io_seconds", T.DoubleType(), False),
        T.StructField("nbytes", T.LongType(), False),
        T.StructField("eb_abs", T.DoubleType(), False),
        T.StructField("psnr", T.DoubleType(), False),
        T.StructField("mse", T.DoubleType(), False),
        T.StructField("n_points", T.LongType(), False),
        T.StructField("vmin", T.DoubleType(), False),
        T.StructField("vmax", T.DoubleType(), False),
    ]
)

def read_partition_file(path: str) -> np.ndarray:
    """Decompress a partition file written by :func:`dump_snapshot`."""
    with open(path, "rb") as f:
        return pipeline.decompress(pipeline.from_bytes(f.read()))


def dump_snapshot(
    spark: SparkSession,
    data: np.ndarray,
    t: int,
    outdir: str,
    method: str,
    target_psnr_db: float = 56.0,
    predictor: str = "lorenzo",
    n_partitions: int = 8,
    traditional_abs_eb: float | None = None,
    candidates_abs: Sequence[float] | None = None,
    io_bytes_per_second: float | None = None,
) -> pd.DataFrame:
    """Dump one snapshot with one method → per-chunk timing rows, in
    ``chunk_id`` order.

    ``n_partitions`` is the number of ranks, i.e. of chunks, files and rows;
    Spark runs them in ``min(n_partitions, defaultParallelism)`` tasks.

    ``io_bytes_per_second`` (optional) models a per-rank parallel-filesystem
    bandwidth budget: the write path sleeps until ``nbytes/bandwidth`` has
    elapsed. A local SSD with a warm page cache writes these laptop-scale
    partitions in microseconds, which would erase the I/O term that
    dominates the paper's Fig. 14 (their Lustre baseline dump is 29.4 s);
    the throttle restores the paper's regime where dumped *bytes* translate
    into dump *time* (see DESIGN.md §2). Raises ``ValueError`` for an
    unknown ``method`` and for ``"traditional"`` without
    ``traditional_abs_eb``, before any Spark work starts.
    """
    if method not in ("traditional", "tae", "model"):
        raise ValueError(f"unknown method {method!r}")
    if method == "traditional" and traditional_abs_eb is None:
        raise ValueError("traditional method needs traditional_abs_eb")
    os.makedirs(outdir, exist_ok=True)
    chunks = array_to_chunks(spark, "RTM", str(t), data, n_chunks=n_partitions)
    snap_range = float(
        np.asarray(data, np.float64).max() - np.asarray(data, np.float64).min()
    )
    if candidates_abs is None:
        candidates_abs = candidate_abs_ebs(snap_range)
    cand = tuple(sorted(candidates_abs, reverse=True))
    # the quality floor is snapshot-level PSNR (as in the paper); each rank
    # knows the snapshot's global range (an allreduce in an MPI code) and
    # keeps its partition's MSE within the implied budget
    mse_budget = snap_range * snap_range * 10.0 ** (-target_psnr_db / 10.0)

    def fn(row, arr):
        cid = int(row["chunk_id"])
        t_opt = 0.0
        if method == "traditional":
            eb = traditional_abs_eb
        elif method == "tae":
            t0 = time.perf_counter()
            eb = cand[-1]  # fallback: strictest candidate
            for eb_try in cand:  # largest (cheapest) first
                c = pipeline.compress(arr, predictor, eb_try)
                rec = pipeline.decompress(c)
                mse = float(np.mean((np.asarray(arr, np.float64) - rec) ** 2))
                if mse <= mse_budget:
                    eb = eb_try
                    break
            t_opt = time.perf_counter() - t0
        else:  # "model"
            t0 = time.perf_counter()
            model = RatioQualityModel(arr, predictor, seed=t + cid)
            # ~20% MSE headroom absorbs model-estimation error
            # (cf. the 20% bit-rate headroom of use-case 2)
            eb = model.error_bound_for_mse(0.8 * mse_budget)
            t_opt = time.perf_counter() - t0
        t0 = time.perf_counter()
        c = pipeline.compress(arr, predictor, eb)
        blob = pipeline.to_bytes(c)
        nbytes = len(blob)
        t_comp = time.perf_counter() - t0
        path = os.path.join(outdir, f"t{t}_{method}_p{cid}.bin")
        t0 = time.perf_counter()
        with open(path, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        t_io = time.perf_counter() - t0
        if io_bytes_per_second is not None:
            budget = nbytes / io_bytes_per_second
            if budget > t_io:
                time.sleep(budget - t_io)
                t_io = budget
        rec = pipeline.decompress(c)
        a64 = np.asarray(arr, np.float64)
        return [
            dict(
                t=t,
                method=method,
                chunk_id=cid,
                opt_seconds=t_opt,
                compress_seconds=t_comp,
                io_seconds=t_io,
                nbytes=int(nbytes),
                eb_abs=float(eb),
                psnr=analysis.psnr(arr, rec),
                mse=float(np.mean((a64 - rec) ** 2)),
                n_points=int(arr.size),
                vmin=float(a64.min()),
                vmax=float(a64.max()),
            )
        ]

    return per_chunk(chunks, fn, DUMP_SCHEMA).toPandas().sort_values("chunk_id", ignore_index=True)


def offline_worstcase_abs_eb(
    timesteps: Sequence[int],
    shape: tuple[int, int, int],
    target_psnr_db: float,
    predictor: str = "lorenzo",
    candidates_abs: Sequence[float] | None = None,
) -> float:
    """The traditional method's offline study: the largest shared absolute
    candidate bound that meets the PSNR target on **every** snapshot
    (Liebig's barrel — the lowest-amplitude snapshot dictates the bound)."""
    if candidates_abs is None:
        d0 = rtm_snapshot(timesteps[0], shape)
        candidates_abs = candidate_abs_ebs(float(d0.max() - d0.min()))
    ok = set(candidates_abs)
    for t in timesteps:
        d = rtm_snapshot(t, shape)
        for eb in list(ok):
            m = pipeline.measure(d, predictor, eb, with_ssim=False)
            if m["psnr"] < target_psnr_db:
                ok.discard(eb)
    return max(ok) if ok else min(candidates_abs)


def run_dump_study(
    spark: SparkSession,
    timesteps: Sequence[int],
    shape: tuple[int, int, int],
    outdir: str,
    target_psnr_db: float = 56.0,
    predictor: str = "lorenzo",
    n_partitions: int = 8,
    io_bytes_per_second: float | None = None,
) -> pd.DataFrame:
    """Fig. 14: dump every snapshot with all three methods; per-snapshot
    per-phase time = max over ranks; also times the no-compression
    baseline. Quality is judged at snapshot level (the paper's PSNR), by
    recombining per-rank MSE/extrema."""
    d0 = rtm_snapshot(timesteps[0], shape)
    cands = candidate_abs_ebs(float(d0.max() - d0.min()))
    trad_abs = offline_worstcase_abs_eb(
        timesteps, shape, target_psnr_db, predictor, cands
    )
    records = []
    for t in timesteps:
        data = rtm_snapshot(int(t), shape)
        # uncompressed baseline: parallel raw write of the full snapshot
        raw_path = os.path.join(outdir, f"t{t}_raw.bin")
        os.makedirs(outdir, exist_ok=True)
        t0 = time.perf_counter()
        with open(raw_path, "wb") as f:
            f.write(np.ascontiguousarray(data).tobytes())
            f.flush()
            os.fsync(f.fileno())
        raw_io = time.perf_counter() - t0
        if io_bytes_per_second is not None:
            # per-rank bandwidth model: ranks write their raw share in parallel
            raw_io = max(raw_io, data.nbytes / n_partitions / io_bytes_per_second)
        for method in ("traditional", "tae", "model"):
            pdf = dump_snapshot(
                spark,
                data,
                int(t),
                outdir,
                method,
                target_psnr_db=target_psnr_db,
                predictor=predictor,
                n_partitions=n_partitions,
                traditional_abs_eb=trad_abs,
                candidates_abs=cands,
                io_bytes_per_second=io_bytes_per_second,
            )
            # snapshot-level PSNR from per-rank pieces
            mse = float((pdf["mse"] * pdf["n_points"]).sum() / pdf["n_points"].sum())
            vrange = float(pdf["vmax"].max() - pdf["vmin"].min())
            snap_psnr = (
                float("inf") if mse == 0 else 10 * np.log10(vrange * vrange / mse)
            )
            records.append(
                dict(
                    t=int(t),
                    method=method,
                    opt_seconds=float(pdf["opt_seconds"].max()),
                    compress_seconds=float(pdf["compress_seconds"].max()),
                    io_seconds=float(pdf["io_seconds"].max()),
                    total_seconds=float(
                        pdf["opt_seconds"].max()
                        + pdf["compress_seconds"].max()
                        + pdf["io_seconds"].max()
                    ),
                    nbytes=int(pdf["nbytes"].sum()),
                    snapshot_psnr=snap_psnr,
                    raw_io_seconds=raw_io,
                    traditional_abs_eb=trad_abs,
                )
            )
    return pd.DataFrame(records)
