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
