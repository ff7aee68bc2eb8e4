"""Scale configuration for the reproduction.

The paper evaluates 10 SDRBench datasets (17 fields, up to 682 GB). We run
laptop-scale synthetic stand-ins (see ``sci_data``): the ``test`` scale is
used by unit tests (< ~15k points per field) and the ``bench`` scale by the
Table II harness and benchmarks (~0.3–1 M points per field). The shapes keep
the paper's dimensionality per dataset (1D HACC/Brown, 2D CESM, 3D most,
4D EXAFEL).
"""
from __future__ import annotations

#: Scale-name -> dataset -> shape used for its fields.
SHAPES: dict[str, dict[str, tuple[int, ...]]] = {
    "test": {
        "CESM": (48, 64),
        "EXAFEL": (2, 4, 24, 24),
        "Hurricane": (12, 24, 24),
        "HACC": (4096,),
        "Nyx": (16, 16, 16),
        "SCALE": (12, 24, 24),
        "QMCPACK": (12, 24, 24),
        "Miranda": (12, 24, 24),
        "Brown": (4096,),
        "RTM": (12, 24, 24),
    },
    "bench": {
        "CESM": (512, 1024),
        "EXAFEL": (4, 8, 96, 96),
        "Hurricane": (48, 96, 96),
        "HACC": (1 << 20,),
        "Nyx": (64, 96, 96),
        "SCALE": (48, 96, 96),
        "QMCPACK": (48, 96, 96),
        "Miranda": (48, 96, 96),
        "Brown": (1 << 20,),
        "RTM": (32, 96, 96),
    },
}

#: Error-bound sweep (value-range-relative) used for the Table II accuracy
#: evaluation and the overhead study — "7 candidate error bounds" (§V-D).
EB_SWEEP_REL: tuple[float, ...] = (1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1)

#: Dimensionalities whose SSIM Table II reports: the paper gives SSIM for
#: 2D/3D image-like fields only (the 1D HACC/Brown and 4D EXAFEL rows show
#: "-"). ``FieldSpec.has_ssim`` and the Table II measurements both read it.
SSIM_NDIMS: tuple[int, ...] = (2, 3)
