"""Table E3 (≙ Fig. 11 / §V-E-2): memory compression with a target ratio.

15 random groups of RTM timesteps with random bit-rate budgets; every member
is compressed towards 80% of the assigned budget via the model's inverse
mapping, then the *measured* consumption is compared to the assignment
(paper: everything within the budget; ~5% of cases would need a second
round).

Run: ``python jobs/usecase_memory_target.py``.
"""
from __future__ import annotations

import pandas as pd

from repro.usecases.memory_target import run_groups

from _common import emit

N_GROUPS = 15
SHAPE = (32, 96, 96)


def main() -> pd.DataFrame:
    res = run_groups(n_groups=N_GROUPS, shape=SHAPE, seed=0)
    pdf = pd.DataFrame(
        [
            dict(
                group=g.group,
                timesteps=",".join(map(str, g.timesteps)),
                budget_bits=g.budget_bits_per_point,
                used_bits=g.used_bits_per_point,
                used_over_assigned=g.used_over_assigned,
                overflow=g.overflow,
            )
            for g in res
        ]
    )
    summary = pd.DataFrame(
        [
            dict(
                mean_used_over_assigned=pdf["used_over_assigned"].mean(),
                max_used_over_assigned=pdf["used_over_assigned"].max(),
                overflow_fraction=pdf["overflow"].mean(),
            )
        ]
    )
    emit("tableE3_memory_groups", pdf)
    emit("tableE3_summary", summary)
    return pdf


if __name__ == "__main__":
    main()
