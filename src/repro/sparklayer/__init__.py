"""Spark distribution layer.

Scientific fields are carved into chunks (slabs along axis 0 — the unit the
paper calls a "data partition": one MPI rank's share of a snapshot) and held
in a DataFrame with a binary payload column. Per-chunk work — building the
ratio-quality model, running the real compressor, dumping a partition —
executes inside Spark executors through the one Arrow-backed wrapper
``chunks.per_chunk``; everything downstream (aggregation to per-field
Table II rows, joins against the dataset roster) is Spark SQL over the
resulting metric DataFrames, checked against the DuckDB oracle in tests.
"""
from .chunks import CHUNK_SCHEMA, array_to_chunks, chunk_to_array, chunks_to_arrays  # noqa: F401
from .model_udf import estimate_metrics, measure_metrics, sample_reports  # noqa: F401
