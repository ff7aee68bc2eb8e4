"""Spark distribution layer.

Scientific fields are carved into chunks (slabs along axis 0 — the unit the
paper calls a "data partition": one MPI rank's share of a snapshot) and held
in a DataFrame with a binary payload column. Per-chunk work — building the
ratio-quality model, running the real compressor, reporting the sample's
fidelity, dumping a partition — executes inside Spark executors through the
one Arrow-backed wrapper ``chunks.per_chunk``. ``table2_metrics`` fuses the
model, compressor and sample-report rows into one pass over the chunks, so
the Table II job deserializes each chunk once; everything downstream
(splitting that output by ``kind``, the estimate ⋈ measurement join,
aggregation to per-field Table II rows) is Spark SQL, checked against the
DuckDB oracle in tests.
"""
from .chunks import CHUNK_SCHEMA, array_to_chunks, chunk_to_array, chunks_to_arrays  # noqa: F401
from .model_udf import (  # noqa: F401
    estimate_metrics,
    measure_metrics,
    sample_reports,
    table2_metrics,
)
