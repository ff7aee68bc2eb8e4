"""Benchmark for Table E1 (Fig. 9): full 7-candidate optimization — our
model vs trial-and-error — on one bench-scale RTM snapshot. The ratio of
the two benchmark means is the paper's headline speedup (18.7× there)."""
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
