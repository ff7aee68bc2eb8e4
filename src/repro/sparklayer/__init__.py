"""Spark distribution layer.

Scientific fields are carved into chunks (slabs along axis 0 — the unit the
paper calls a "data partition": one MPI rank's share of a snapshot) and held
in a DataFrame with a binary payload column, laid out with no shuffle in one
partition per core (``chunks.layout_chunks``). Per-chunk work — building the
ratio-quality model, running the real compressor, reporting the sample's
fidelity, dumping a partition — executes inside Spark executors through the
one Arrow-backed wrapper ``chunks.per_chunk``. ``table2_metrics`` runs the
model, the compressor and the sample report in one pass over the chunks and
emits one wide row per (chunk, predictor, error bound) with the estimate and
the measurement side by side, so the Table II job deserializes each chunk
once; its aggregation to per-field Table II rows is one Spark SQL
``groupBy``, checked against the DuckDB oracle in tests.
"""
from .chunks import CHUNK_SCHEMA, array_to_chunks, chunk_to_array, chunks_to_arrays  # noqa: F401
from .model_udf import (  # noqa: F401
    estimate_metrics,
    measure_metrics,
    sample_reports,
    table2_metrics,
)
