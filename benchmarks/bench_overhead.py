"""Benchmark for Table E1 (Fig. 9): full 7-candidate optimization — our
model vs trial-and-error — on one whole bench-scale RTM snapshot, on the
driver. The ratio of the two benchmark means is a one-field check of the
paper's headline speedup (18.7× there). Table E1 itself comes from the
Table II job (``jobs/table2_accuracy.py``): the stage seconds that the same
executor pass records per chunk, over all 17 fields."""
import numpy as np
import pytest

from repro import sci_data
from repro.analysis import value_range
from repro.config import EB_SWEEP_REL
from repro.core.model import RatioQualityModel
from repro.compressor import pipeline


@pytest.fixture(scope="module")
def rtm():
    return sci_data.generate("RTM", "2000", "bench")


@pytest.fixture(scope="module")
def vrange(rtm):
    return value_range(rtm)


def test_ours_7_candidates(benchmark, rtm, vrange):
    def run():
        m = RatioQualityModel(rtm, "lorenzo", seed=7)
        return m.curve(np.asarray(EB_SWEEP_REL) * vrange)

    benchmark(run)


def test_tae_7_candidates(benchmark, rtm, vrange):
    def run():
        return [
            pipeline.compress(rtm, "lorenzo", r * vrange).nbytes_lossless
            for r in EB_SWEEP_REL
        ]

    benchmark(run)
