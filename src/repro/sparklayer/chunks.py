"""Chunked DataFrame representation of scientific fields.

A chunk row is ``(dataset, field, chunk_id, dims, dtype, values)`` where
``values`` is the raw little-endian buffer of a C-contiguous array of shape
``dims``. Chunks are slabs along axis 0, the same way an MPI rank holds a
contiguous sub-domain of a snapshot in the paper's parallel-HDF5 setup.
``chunk_rows`` cuts one field; ``layout_chunks`` turns chunk rows into a
DataFrame (``array_to_chunks`` for one field; the Table II job passes every
field's rows at once). ``per_chunk`` is the one place per-chunk work enters
the Spark executors.

A chunk is a rank, not a Spark task. ``layout_chunks`` lays ``n`` chunks out
in ``min(n, defaultParallelism)`` partitions balanced by bytes, with no
shuffle, so a ``per_chunk`` job runs as one stage of one task wave; each
task works through its chunks one after another.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

__all__ = [
    "CHUNK_SCHEMA",
    "array_to_chunks",
    "chunk_rows",
    "chunk_to_array",
    "chunks_to_arrays",
    "layout_chunks",
    "per_chunk",
]

CHUNK_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType(), False),
        T.StructField("field", T.StringType(), False),
        T.StructField("chunk_id", T.IntegerType(), False),
        T.StructField("dims", T.ArrayType(T.IntegerType()), False),
        T.StructField("dtype", T.StringType(), False),
        T.StructField("values", T.BinaryType(), False),
    ]
)


def chunk_rows(dataset: str, field: str, arr: np.ndarray, n_chunks: int) -> list[dict]:
    """Split ``arr`` into ≤ ``n_chunks`` axis-0 slabs → plain row dicts."""
    arr = np.ascontiguousarray(arr)
    n0 = arr.shape[0]
    n_chunks = max(1, min(n_chunks, n0))
    bounds = np.linspace(0, n0, n_chunks + 1).astype(int)
    rows = []
    for cid, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if b <= a:
            continue
        slab = np.ascontiguousarray(arr[a:b])
        rows.append(
            {
                "dataset": dataset,
                "field": field,
                "chunk_id": cid,
                "dims": [int(x) for x in slab.shape],
                "dtype": str(slab.dtype),
                "values": slab.tobytes(),
            }
        )
    return rows


def layout_chunks(spark: SparkSession, rows: list[dict]) -> DataFrame:
    """Chunk rows → DataFrame of ``p = min(len(rows), defaultParallelism)``
    partitions of about equal bytes, with no shuffle.

    Spark cuts a local relation into ``p`` contiguous runs of rows
    (``LocalTableScanExec`` parallelizes it in ``min(n, parallelism)``
    slices; slice ``i`` is rows ``i·n//p`` to ``(i+1)·n//p``). So the rows
    are dealt here, largest first, each onto the lightest group that still
    has room for its slice, and the groups are laid out one after another.
    """
    n = len(rows)
    p = min(n, spark.sparkContext.defaultParallelism)
    room = [(i + 1) * n // p - i * n // p for i in range(p)]
    groups: list[list[dict]] = [[] for _ in range(p)]
    load = [0] * p
    for r in sorted(rows, key=lambda r: len(r["values"]), reverse=True):
        g = min((i for i in range(p) if len(groups[i]) < room[i]), key=load.__getitem__)
        groups[g].append(r)
        load[g] += len(r["values"])
    laid_out = [r for g in groups for r in g]
    return spark.createDataFrame(pd.DataFrame(laid_out), schema=CHUNK_SCHEMA)


def array_to_chunks(
    spark: SparkSession,
    dataset: str,
    field: str,
    arr: np.ndarray,
    n_chunks: int = 4,
) -> DataFrame:
    """One field → chunk DataFrame of ``n_chunks`` slabs (``layout_chunks``)."""
    return layout_chunks(spark, chunk_rows(dataset, field, arr, n_chunks))


def chunk_to_array(row) -> np.ndarray:
    """Row (Row or dict-like) → numpy array."""
    return np.frombuffer(row["values"], dtype=np.dtype(row["dtype"])).reshape(
        tuple(row["dims"])
    )


def chunks_to_arrays(df: DataFrame) -> dict[tuple[str, str, int], np.ndarray]:
    """Collect a chunk DataFrame → {(dataset, field, chunk_id): array}."""
    return {
        (r["dataset"], r["field"], int(r["chunk_id"])): chunk_to_array(r)
        for r in df.collect()
    }


def per_chunk(
    chunks: DataFrame,
    fn: Callable[[dict, np.ndarray], Iterable[dict]],
    schema: T.StructType,
) -> DataFrame:
    """Run ``fn(row, array)`` on every chunk inside the executors.

    ``row`` is the chunk row as a dict and ``array`` its decoded values;
    ``fn`` returns that chunk's output rows as dicts. Each chunk's rows
    become one pandas frame with ``schema``'s columns, in the order the
    partition holds the chunks (Arrow ``mapInPandas``).
    """
    cols = schema.fieldNames()

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for row in pdf.to_dict("records"):
                yield pd.DataFrame(fn(row, chunk_to_array(row)), columns=cols)

    return chunks.mapInPandas(run, schema=schema)
