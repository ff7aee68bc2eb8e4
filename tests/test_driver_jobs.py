"""Jobs that run on the driver only open no Spark session."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs the Table I job as ``__main__`` with PySpark unimportable and the
#: results writer stubbed out, so the run writes nothing.
_SCRIPT = """
import runpy, sys
sys.modules["pyspark"] = None
sys.path.insert(0, "jobs")
import _common
_common.emit = lambda name, pdf, float_fmt="%.4g": print(name, len(pdf))
runpy.run_path("jobs/table1_datasets.py", run_name="__main__")
"""


def test_table1_job_runs_without_pyspark():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["table1_datasets", "10"]


def test_calibration_scores_a_pair_as_the_table2_job_does():
    """``calibrate_model.score`` at the constants in use reads the averages
    of the committed test-scale Table II, and the committed Table E7 lists
    the constants in use as its best pair."""
    import pandas as pd

    from repro.core import ratio_model

    sys.path.insert(0, str(ROOT / "jobs"))
    import calibrate_model

    got = calibrate_model.score(
        calibrate_model.corpus_trials("test"), ratio_model.MODEL_C1_BITS, ratio_model.MODEL_RMAX
    )
    table2 = pd.read_csv(ROOT / "results" / "table2_accuracy_test.csv").iloc[-1]
    for col in ("huff_err", "lossless_err", "huff_ll_err"):
        assert round(got[col], 2) == table2[col], col
    best = pd.read_csv(ROOT / "results" / "tableE7_calibration.csv").iloc[0]
    assert (best["c1_bits"], best["rmax"]) == (ratio_model.MODEL_C1_BITS, ratio_model.MODEL_RMAX)
