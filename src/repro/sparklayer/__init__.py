"""Spark distribution layer.

Scientific fields are carved into chunks (slabs along axis 0 — the unit the
paper calls a "data partition": one MPI rank's share of a snapshot) and held
in an RDD as pickled row dicts, each carrying its slab as a numpy array, laid
out with no shuffle in one partition per core (``chunks.layout_chunks``). Per-chunk work
— building the ratio-quality model, running the real compressor, reporting
the sample's fidelity, dumping a partition — executes inside Spark executors
through the one RDD ``mapPartitions`` wrapper ``chunks.per_chunk``, which
also ends each task by dropping the worker's cached ``pyspark.zip`` finders
so that the worker's next task starts without re-reading the archive. No
job's rows enter Spark SQL, and ``src/`` declares no Spark schema: the dump
and ``table2_metrics`` collect their rows straight into pandas. ``table2_metrics`` runs the model, the compressor and
the sample report in one pass over the chunks (one Spark job of one stage)
and returns one wide row per (chunk, predictor, error bound) with the
estimate and the measurement side by side, so the Table II job
deserializes each chunk once; its aggregation to per-field Table II rows is
pandas on the driver, checked against the DuckDB oracle of ``tests/oracle.py``.
"""
from .chunks import chunk_to_array  # noqa: F401
from .model_udf import (  # noqa: F401
    estimate_metrics,
    measure_metrics,
    sample_reports,
    table2_metrics,
)
