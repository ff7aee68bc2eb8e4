"""Use-case 2 (§IV-B, §V-E-2): memory compression with a target ratio.

Given a memory budget (bits/point), the model's inverse mapping picks a
per-chunk error bound targeting **80% of the budget** (the paper's headroom
rule: "a target bit-rate … 20% lower than the limitation to allow
uncertainty between estimation and real compression"). The experiment of
Fig. 11 draws random groups of RTM timesteps with random budgets and checks
the measured consumption against the assigned space — overflows should be
rare (~5% in the paper).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compressor import pipeline
from ..core.model import RatioQualityModel
from ..sci_data import rtm_snapshot

__all__ = ["HEADROOM", "plan_and_compress", "run_groups", "GroupResult"]

#: Target = HEADROOM × budget (§IV-B's "20% lower" rule).
HEADROOM = 0.8


@dataclass(frozen=True)
class GroupResult:
    """One Fig.-11 group: assigned space vs measured consumption."""

    group: int
    timesteps: tuple[int, ...]
    budget_bits_per_point: float
    used_bits_per_point: float

    @property
    def used_over_assigned(self) -> float:
        return self.used_bits_per_point / self.budget_bits_per_point

    @property
    def overflow(self) -> bool:
        return self.used_bits_per_point > self.budget_bits_per_point


def plan_and_compress(
    data: np.ndarray,
    budget_bits_per_point: float,
    predictor: str = "lorenzo",
    seed: int = 0,
) -> dict:
    """Pick the error bound for ``HEADROOM × budget`` via the model, then
    actually compress and report the measured bit-rate."""
    target = HEADROOM * budget_bits_per_point
    model = RatioQualityModel(data, predictor, seed=seed)
    eb = model.error_bound_for_bitrate(target)
    c = pipeline.compress(data, predictor, eb)
    return {
        "eb_abs": eb,
        "target_bitrate": target,
        "est_bitrate": model.estimate(eb)["bitrate_ll"],
        "used_bitrate": c.bitrate(lossless=True),
        "budget_bitrate": budget_bits_per_point,
    }


def run_groups(
    n_groups: int = 15,
    shape: tuple[int, int, int] = (16, 48, 48),
    predictor: str = "lorenzo",
    seed: int = 0,
) -> list[GroupResult]:
    """The Fig.-11 experiment: ``n_groups`` random (timestep-set, budget)
    draws on RTM snapshots; per group, compress every member towards the
    80%-headroom target and compare total consumption to the assigned space."""
    g = np.random.default_rng(seed)
    results = []
    all_ts = np.arange(1000, 3401, 100)
    for i in range(n_groups):
        k = int(g.integers(1, 4))
        ts = tuple(int(t) for t in np.sort(g.choice(all_ts, size=k, replace=False)))
        budget = float(g.uniform(1.5, 6.0))
        used_bits, n_pts = 0.0, 0
        for t in ts:
            d = rtm_snapshot(t, shape)
            r = plan_and_compress(d, budget, predictor=predictor, seed=seed + i)
            used_bits += r["used_bitrate"] * d.size
            n_pts += d.size
        results.append(GroupResult(i, ts, budget, used_bits / n_pts))
    return results
