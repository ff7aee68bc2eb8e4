"""Shared helpers for the job entrypoints."""
from __future__ import annotations

import os
import sys

import pandas as pd


def get_spark(app: str):
    """Build (or reuse) the session for standalone `spark-submit`/CLI runs
    of the Spark jobs (Table II and the dump).

    Tests instead inject the session fixture from conftest.py; those jobs
    expose ``main(spark, ...)`` so both paths share the same code.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return SparkSession.builder.appName(app).getOrCreate()


def results_dir() -> str:
    d = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")
    os.makedirs(d, exist_ok=True)
    return d


def emit(name: str, pdf: pd.DataFrame) -> None:
    """Print a result table and persist it under results/<name>.csv."""
    path = os.path.join(results_dir(), f"{name}.csv")
    pdf.to_csv(path, index=False)
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        print(f"\n=== {name} ===", file=sys.stdout)
        print(pdf.to_string(index=False, float_format=lambda x: "%.4g" % x))
    print(f"[written {path}]")
