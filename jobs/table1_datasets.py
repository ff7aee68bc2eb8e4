"""Table I: the evaluated-dataset roster — paper's datasets next to our
synthetic stand-ins (dimensionality preserved, sizes laptop-scaled).

Run: ``python jobs/table1_datasets.py`` (a static roster built on the
driver; no Spark session).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.config import SHAPES
from repro.sci_data import FIELDS

from _common import emit

PAPER_SIZES = {
    "CESM": "1.47GB", "EXAFEL": "51MB", "Hurricane": "1.25GB", "HACC": "19GB",
    "Nyx": "2.7GB", "SCALE": "4.9GB", "QMCPACK": "1GB", "Miranda": "1.87GB",
    "Brown": "256MB", "RTM": "682GB",
}
DESCRIPTIONS = {
    "CESM": "Climate simulation", "EXAFEL": "LCLS instrument images",
    "Hurricane": "Weather simulation", "HACC": "Cosmology simulation",
    "Nyx": "Cosmology simulation", "SCALE": "Climate simulation",
    "QMCPACK": "Electronic structure of atoms", "Miranda": "Turbulence simulation",
    "Brown": "Synthetic Brown data", "RTM": "Reverse time migration",
}


def main() -> pd.DataFrame:
    rows = []
    for ds in dict.fromkeys(f.dataset for f in FIELDS):
        shape = SHAPES["bench"][ds]
        fields = [f.field for f in FIELDS if f.dataset == ds]
        mb = 4 * np.prod(shape) * len(fields) / 1e6
        rows.append(
            dict(
                dataset=ds,
                dim=f"{len(shape)}D",
                paper_size=PAPER_SIZES[ds],
                ours_shape="x".join(map(str, shape)),
                ours_mb=round(float(mb), 2),
                n_fields=len(fields),
                description=DESCRIPTIONS[ds],
            )
        )
    pdf = pd.DataFrame(rows)
    emit("table1_datasets", pdf)
    return pdf


if __name__ == "__main__":
    main()
