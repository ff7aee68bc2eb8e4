"""The one hard-bound check, ``pipeline.check_error``: every trial and every
rank the dump writes is held to ``max_err <= eb_abs·(1 + BOUND_RTOL)``.

Each consumer must raise when the bound breaks. ``break_the_bound`` makes
``pipeline.decompress`` move one point of every reconstruction by 2·eb; the
dump's chunk work runs in this process (``LocalChunks``) so the patch
reaches it. ``per_chunk`` names the chunk of any exception from per-chunk
work in a PEP 678 note, in a real Spark job and in the stand-in alike.
"""
import glob
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from py4j.protocol import Py4JJavaError

from repro.compressor import pipeline
from repro.sci_data import rtm_snapshot
from repro.sparklayer.chunks import chunk_rows, layout_chunks, per_chunk
from repro.usecases import data_dump, insitu
from repro.usecases.predictor_selection import rd_curves
from tests.stand_ins import LocalChunks, break_the_bound

SHAPE = (8, 24, 24)
#: ``check_error``'s message; pytest 8 matches the notes after it.
OVER = r"^lorenzo: max error .* exceeds the bound "


def test_check_error_holds_the_bound_with_its_slack():
    c = pipeline.compress(rtm_snapshot(2000, SHAPE), "lorenzo", 0.5)
    q = {"max_err": 0.5 * (1 + pipeline.BOUND_RTOL)}
    assert pipeline.check_error(c, q) is q
    for bad in (0.5 * (1 + 2 * pipeline.BOUND_RTOL), math.nan):
        with pytest.raises(ValueError, match=OVER + r"0\.5$"):
            pipeline.check_error(c, {"max_err": bad})


def test_trials_raise_on_a_broken_bound(monkeypatch):
    break_the_bound(monkeypatch)
    with pytest.raises(ValueError, match=OVER):
        pipeline.measure(rtm_snapshot(2000, SHAPE), "lorenzo", 1e-3)


def _dump(tmp_path, method):
    d = rtm_snapshot(2000, SHAPE)
    cands = data_dump.candidate_abs_ebs(float(d.max() - d.min()))
    return data_dump.dump_snapshot(
        None, d, 2000, str(tmp_path), method, cands, target_psnr_db=50.0,
        n_partitions=2, traditional_abs_eb=cands[2],
    )


@pytest.mark.parametrize("method", ["tae", "model", "traditional"])
def test_dump_rejects_a_rank_over_its_bound(monkeypatch, tmp_path, method):
    """``tae`` fails in its trials, ``model`` and ``traditional`` on the
    rank they would write; the error names the rank's chunk and no file is
    written."""
    monkeypatch.setattr(data_dump, "layout_chunks", lambda spark, rows: LocalChunks(rows))
    assert len(_dump(tmp_path / "ok", method)) == 2
    break_the_bound(monkeypatch)
    with pytest.raises(ValueError, match=OVER + r".*\nin RTM/2000 chunk 0$") as info:
        _dump(tmp_path / "broken", method)
    assert any(entry.name == "trials" for entry in info.traceback) == (method == "tae")
    assert not glob.glob(str(tmp_path / "broken" / "*.bin"))


def test_offline_study_rejects_a_broken_bound(monkeypatch):
    d = rtm_snapshot(2000, SHAPE)
    cands = data_dump.candidate_abs_ebs(float(d.max() - d.min()))
    break_the_bound(monkeypatch)
    with pytest.raises(ValueError, match=OVER):
        data_dump.offline_worstcase_abs_eb([d], 50.0, "lorenzo", cands)


def test_insitu_quality_targeted_rejects_a_broken_bound(monkeypatch):
    snaps = {t: rtm_snapshot(t, SHAPE) for t in (1000, 2000)}
    models = insitu.per_snapshot_models(snaps, "lorenzo", seed=0)
    break_the_bound(monkeypatch)
    with pytest.raises(ValueError, match=OVER):
        insitu.quality_targeted(snaps, models, 50.0)


def test_measured_rd_curves_reject_a_broken_bound(monkeypatch):
    break_the_bound(monkeypatch)
    with pytest.raises(ValueError, match=OVER):
        rd_curves(rtm_snapshot(2000, SHAPE), ("lorenzo",), (1e-3,), measured=True)


def test_calibration_trials_reject_a_broken_bound(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))
    import calibrate_model

    break_the_bound(monkeypatch)
    with pytest.raises(ValueError, match=OVER):
        calibrate_model.corpus_trials("test")


def _fail_on_chunk_1(row, arr):
    if row["chunk_id"] == 1:
        raise ValueError("bad slab")
    return [{"chunk_id": row["chunk_id"], "n": int(arr.size)}]


def test_per_chunk_notes_the_chunk_of_an_exception():
    rows = chunk_rows("T", "f", np.zeros((3, 4), np.float32), 3)
    with pytest.raises(ValueError, match=r"^bad slab\nin T/f chunk 1$"):
        per_chunk(LocalChunks(rows), _fail_on_chunk_1).collect()
    ok = per_chunk(LocalChunks(rows[:1] + rows[2:]), _fail_on_chunk_1).collect()
    assert ok == [{"chunk_id": 0, "n": 4}, {"chunk_id": 2, "n": 4}]


def test_per_chunk_notes_the_chunk_in_a_spark_job(spark):
    """The driver's ``PythonException`` text carries the executor's note."""
    rdd = layout_chunks(spark, chunk_rows("T", "f", np.zeros((3, 4), np.float32), 3))

    # Defined inline so that it pickles by value: the workers never import
    # this test module.
    def fail_on_chunk_1(row, arr):
        if row["chunk_id"] == 1:
            raise ValueError("bad slab")
        return [{"chunk_id": row["chunk_id"]}]

    note = r"(?s)PythonException.*ValueError: bad slab\nin T/f chunk 1\n"
    with pytest.raises(Py4JJavaError, match=note):
        per_chunk(rdd, fail_on_chunk_1).collect()
