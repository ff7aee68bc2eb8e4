"""Shared pieces of the benchmark: paths, seeded inputs, the Spark session,
the correctness tally, the span recorder and Spark job counters.

Nothing here times code inside the program: every span wraps a call the
benchmark itself makes into a public function of ``repro`` or of the jobs.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
JOBS = ROOT / "jobs"
WORK = ROOT / ".perfbench_work"

#: Spark runs as local[N]; N never exceeds the machine's cores.
SPARK_CORES = max(1, min(4, os.cpu_count() or 1))

#: Seed 0 reproduces the repository's own inputs; seed n shifts every
#: generator seed by n * SEED_STRIDE (field seeds are 101..901 and EXAFEL
#: derives up to +528 from its own, so the stride keeps fields apart).
SEED_STRIDE = 1000
#: The model seed used by the Table II job and the use-case harnesses.
MODEL_SEED = 7


def require_program() -> None:
    """Fail (exit 2) unless the program's sources sit beside the benchmark."""
    needed = [SRC / "repro" / "__init__.py", JOBS / "_common.py", JOBS / "table2_accuracy.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: program sources missing: {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)
    for p in (str(JOBS), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)


class RunDir:
    """A private scratch directory under ``.perfbench_work`` for one run.

    Temporary files of Python, the JVM and Spark all land here, so the run
    reads and writes only inside the checkout; ``close`` removes it.
    """

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        os.environ["TMPDIR"] = str(self.tmp)
        tempfile.tempdir = str(self.tmp)

    def sub(self, name: str) -> Path:
        p = self.path / name
        p.mkdir(parents=True, exist_ok=True)
        return p

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def field_seed(spec_seed: int, seed: int) -> int:
    return spec_seed + SEED_STRIDE * seed


def bench_fields(seed: int) -> dict[tuple[str, str], "object"]:
    """The 17 Table II fields at bench scale, generated through the public
    ``FieldSpec.gen(shape, seed)``."""
    from repro import sci_data
    from repro.config import SHAPES

    return {
        (s.dataset, s.field): s.gen(SHAPES["bench"][s.dataset], field_seed(s.seed, seed))
        for s in sci_data.FIELDS
    }


def median_time(fn, reps: int = 3):
    """Run ``fn`` ``reps`` times → (median seconds, last result)."""
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------------------
# Spark
# ---------------------------------------------------------------------------

def start_spark(run: RunDir):
    """Start the session the jobs use (``jobs/_common.get_spark``) as
    local[SPARK_CORES], with every Spark and JVM temp path inside ``run``."""
    local = run.sub("spark-local")
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # every JVM spark-submit starts, the launcher included
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={run.tmp}"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.warehouse.dir={run.sub('warehouse')} "
        "pyspark-shell"
    )
    from _common import get_spark

    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


class JobCounter:
    """Jobs, stages and tasks of one job group, read from the status tracker
    (works with the Spark UI disabled)."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.tracker = self.sc.statusTracker()
        self._n = 0

    @contextmanager
    def group(self, label: str):
        self._n += 1
        gid = f"perfbench-{self._n}-{label}"
        self.sc.setJobGroup(gid, label)
        out = {"jobs": 0, "stages": 0, "tasks": 0}
        try:
            yield out
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            out.update(self.counts(gid))

    def counts(self, gid: str) -> dict:
        jobs = self.tracker.getJobIdsForGroup(gid)
        stages, tasks = set(), 0
        for j in jobs:
            info = self.tracker.getJobInfo(j)
            if info is None:
                continue
            for s in info.stageIds:
                si = self.tracker.getStageInfo(s)
                if si is not None and s not in stages:
                    stages.add(s)
                    tasks += si.numTasks
        return {"jobs": len(jobs), "stages": len(stages), "tasks": tasks}


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

class Checks:
    """Tally of checked outputs. Every violation counts as a failure,
    whatever its cause; the first few are described on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"perfbench: check failed: {what}", file=sys.stderr)


#: Relative slack on ``max|x - x'| <= eb``, the same as the repository's own
#: tests allow (``tests/test_usecase_dump.py``, ``tests/test_pipeline.py``):
#: the error is computed in float64 and can exceed a bound the compressor
#: meets by one rounding step (seen: 3.7989440917968977 vs 3.798944091796875).
#: A real violation, such as the int32 code cast of the dump writer, is
#: larger by many orders of magnitude.
BOUND_RTOL = 1e-9


def within_bound(err: float, eb: float) -> bool:
    """``err <= eb`` up to float64 rounding of the error itself."""
    return err <= eb * (1.0 + BOUND_RTOL)


def mean_rel_err_pct(rel: dict[str, list[float]]) -> dict[str, float]:
    """Mean of |measured / estimated - 1| per metric with data, in percent."""
    return {k: 100.0 * statistics.fmean(abs(r - 1.0) for r in v) for k, v in rel.items() if v}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start, end, parent id, pass id) recorded around
    calls the benchmark makes; written out once, at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _children(self) -> dict[int, list[dict]]:
        kids: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        return kids

    def totals(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds (self = duration
        minus the part of it that child spans cover)."""
        kids = self._children()
        out: dict[str, dict] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            covered = _covered(
                [(c["start"], c["end"]) for c in kids.get(s["id"], [])]
            )
            t = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            t["count"] += 1
            t["total_s"] += dur
            t["self_s"] += dur - covered
        return out

    def total(self, name: str) -> float:
        return self.totals().get(name, {}).get("total_s", 0.0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "totals": self.totals()}, f, indent=1)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
