"""Synthetic stand-ins for the 10 SDRBench scientific datasets of Table I.

The paper evaluates on real SDRBench data (CESM, EXAFEL, Hurricane, HACC,
Nyx, SCALE, QMCPACK, Miranda, Brown, RTM). Those archives are not available
offline, so each field is replaced by a **seeded synthetic generator** that
matches the original's dimensionality and qualitative statistics — the
properties the ratio-quality model actually consumes (smoothness / spectral
slope, skewness, value range, prediction-error concentration). See DESIGN.md
§2 for the substitution argument.

All generators are deterministic in ``seed`` and return ``float32`` arrays
(SDRBench data is single precision).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import SHAPES, SSIM_NDIMS

__all__ = ["FIELDS", "FieldSpec", "generate", "rtm_snapshot", "grf"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def grf(shape: tuple[int, ...], slope: float, seed: int) -> np.ndarray:
    """Gaussian random field with isotropic power spectrum P(k) ~ k**slope.

    Built by spectrally filtering white noise: steeper (more negative)
    slopes give smoother fields (climate-like), shallower slopes give
    rougher, turbulence-like fields. Output is standardized to zero mean,
    unit variance.
    """
    g = _rng(seed)
    white = g.standard_normal(shape)
    f = np.fft.fftn(white)
    grids = np.meshgrid(*[np.fft.fftfreq(n) * n for n in shape], indexing="ij")
    k = np.sqrt(sum(gr.astype(np.float64) ** 2 for gr in grids))
    k[(0,) * len(shape)] = 1.0  # avoid div-by-zero at DC
    amp = k ** (slope / 2.0)
    amp[(0,) * len(shape)] = 0.0  # zero-mean field
    field = np.fft.ifftn(f * amp).real
    field -= field.mean()
    std = field.std()
    if std > 0:
        field /= std
    return field.astype(np.float32)


# ---------------------------------------------------------------------------
# Per-field generators. Signatures: (shape, seed) -> float32 ndarray.
# ---------------------------------------------------------------------------

def _cesm_ts(shape, seed):
    """Surface temperature: latitudinal gradient + smooth weather field."""
    lat = np.linspace(-np.pi / 2, np.pi / 2, shape[0])[:, None]
    base = 250.0 + 45.0 * np.cos(lat) * np.ones(shape)
    return (base + 8.0 * grf(shape, -3.5, seed)).astype(np.float32)


def _cesm_trop_z(shape, seed):
    """Tropopause height: very smooth, large dynamic range (~5–18 km)."""
    lat = np.linspace(-np.pi / 2, np.pi / 2, shape[0])[:, None]
    base = 11000.0 + 5000.0 * np.cos(2 * lat) * np.ones(shape)
    return (base + 400.0 * grf(shape, -4.0, seed)).astype(np.float32)


def _hurricane_u(shape, seed):
    """Wind velocity: moderately rough 3D field with a vortex component."""
    z, y, x = np.meshgrid(*[np.linspace(-1, 1, n) for n in shape], indexing="ij")
    r2 = x**2 + y**2 + 0.05
    swirl = (-y / r2) * np.exp(-2 * r2) * 40.0
    return (swirl + 6.0 * grf(shape, -3.0, seed)).astype(np.float32)


def _hurricane_tc(shape, seed):
    """Temperature: smooth with vertical lapse."""
    z = np.linspace(0, 1, shape[0])[:, None, None]
    base = 300.0 - 70.0 * z * np.ones(shape)
    return (base + 2.5 * grf(shape, -3.8, seed)).astype(np.float32)


def _nyx_dark_matter(shape, seed):
    """Dark-matter density: log-normal, extremely skewed (hard to compress)."""
    f = grf(shape, -2.5, seed)
    return (1e9 * np.exp(2.2 * f)).astype(np.float32)


def _nyx_temperature(shape, seed):
    """Baryon temperature: log-normal, milder skew."""
    f = grf(shape, -3.0, seed)
    return (1e4 * np.exp(1.2 * f)).astype(np.float32)


def _nyx_velocity_z(shape, seed):
    """Peculiar velocity: near-Gaussian large-scale flow."""
    return (2.5e7 * grf(shape, -2.8, seed)).astype(np.float32)


def _scale_pres(shape, seed):
    """Pressure: exponential decay with altitude + smooth perturbation."""
    z = np.linspace(0, 1, shape[0])[:, None, None]
    base = 101325.0 * np.exp(-1.2 * z) * np.ones(shape)
    return (base + 300.0 * grf(shape, -3.6, seed)).astype(np.float32)


def _qmcpack_einspine(shape, seed):
    """Electronic orbital: oscillatory wavefunction-like field."""
    z, y, x = np.meshgrid(*[np.linspace(0, 4 * np.pi, n) for n in shape], indexing="ij")
    wave = np.sin(1.7 * x) * np.sin(2.3 * y) * np.sin(1.3 * z)
    env = np.exp(-0.08 * ((x - 2 * np.pi) ** 2 + (y - 2 * np.pi) ** 2))
    return (wave * env + 0.05 * grf(shape, -2.5, seed)).astype(np.float32)


def _miranda_vx(shape, seed):
    """Turbulent velocity: Kolmogorov-like shallow spectrum."""
    return (1.5 * grf(shape, -5.0 / 3.0 - 2.0, seed)).astype(np.float32)


def _hacc_xx(shape, seed):
    """Particle x-positions: cell-clustered, piecewise-correlated 1D stream.

    HACC dumps particles grouped by spatial cell, so consecutive positions
    are near each other with occasional jumps between cells — which is what
    makes Lorenzo-on-1D work at all on HACC.
    """
    (n,) = shape
    g = _rng(seed)
    ppc = 64  # particles per cell
    n_cells = max(1, n // ppc)
    cell = np.repeat(np.arange(n_cells + 1), ppc)[:n]
    cell_size = 256.0 / n_cells
    jitter = g.random(n) * cell_size
    return (cell * cell_size + jitter).astype(np.float32)


def _hacc_vx(shape, seed):
    """Particle velocities: correlated bulk flow + thermal noise."""
    (n,) = shape
    g = _rng(seed)
    bulk = np.interp(
        np.arange(n), np.linspace(0, n, 256), g.standard_normal(256) * 800.0
    )
    return (bulk + 180.0 * g.standard_normal(n)).astype(np.float32)


def _brown_pressure(shape, seed):
    """Synthetic Brown data: literally Brownian motion (paper's own choice)."""
    (n,) = shape
    g = _rng(seed)
    return np.cumsum(g.standard_normal(n)).astype(np.float32)


def _exafel_raw(shape, seed):
    """LCLS detector images: per-panel smooth background + photon speckle."""
    g = _rng(seed)
    p, s, h, w = shape
    out = np.empty(shape, dtype=np.float32)
    for i in range(p):
        for j in range(s):
            bg = 120.0 + 40.0 * grf((h, w), -3.0, seed + 17 * (i * s + j) + 1)
            speckle = g.poisson(0.08, (h, w)) * g.uniform(60, 140, (h, w))
            out[i, j] = bg + speckle
    return out


def rtm_snapshot(t: float, shape: tuple[int, int, int], seed: int = 530) -> np.ndarray:
    """Reverse-time-migration wavefield snapshot at pseudo-timestep ``t``.

    An expanding Ricker-wavelet shell from a near-surface source, passing
    over layered reflectors that spawn secondary (weaker) wavefronts, plus a
    small ambient noise floor. ``t`` uses the paper's snapshot numbering
    (~1000–3400); larger ``t`` → larger wavefront radius → more of the
    volume is non-quiescent → harder to compress (the property the in-situ
    use-case exploits).
    """
    g = _rng(seed)
    z, y, x = np.meshgrid(*[np.linspace(0, 1, n) for n in shape], indexing="ij")
    src = (0.05, 0.5, 0.5)
    r = np.sqrt((z - src[0]) ** 2 + (y - src[1]) ** 2 + (x - src[2]) ** 2)
    radius = 0.35 * (t / 1000.0) ** 0.8  # wavefront radius grows with t
    width = 0.06
    arg = (r - radius) / width
    primary = (1 - 2 * arg**2) * np.exp(-(arg**2))  # Ricker wavelet shell
    primary *= np.exp(-3.0 * r)  # geometric/attenuation decay — the shell
    # amplitude (≈ the snapshot's value range) decays with t, which is what
    # gives the in-situ use-case its per-snapshot heterogeneity under a
    # shared *absolute* error bound (Fig. 13)
    # Reflector at depth 0.6: mirrored, delayed, weaker secondary wavefront.
    rz = np.sqrt((z - 1.15) ** 2 + (y - src[1]) ** 2 + (x - src[2]) ** 2)
    arg2 = (rz - radius) / width
    secondary = 0.35 * (1 - 2 * arg2**2) * np.exp(-(arg2**2)) * np.exp(-1.2 * rz)
    noise = 0.002 * g.standard_normal(shape)
    return (1e3 * (primary + secondary + noise)).astype(np.float32)


def _rtm_field(t):
    return lambda shape, seed: rtm_snapshot(float(t), shape, seed)


@dataclass(frozen=True)
class FieldSpec:
    """One evaluated dataset field (a row of the paper's Table II)."""

    dataset: str
    field: str
    ndim: int
    seed: int
    gen: Callable[[tuple[int, ...], int], np.ndarray]

    @property
    def has_ssim(self) -> bool:
        """Whether Table II reports this field's SSIM (``SSIM_NDIMS``)."""
        return self.ndim in SSIM_NDIMS


#: The 17 dataset fields of Table II, in the paper's order.
FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("RTM", "1000", 3, 530, _rtm_field(1000)),
    FieldSpec("RTM", "2000", 3, 530, _rtm_field(2000)),
    FieldSpec("RTM", "3000", 3, 530, _rtm_field(3000)),
    FieldSpec("CESM", "TS", 2, 101, _cesm_ts),
    FieldSpec("CESM", "TROP_Z", 2, 102, _cesm_trop_z),
    FieldSpec("Hurricane", "U", 3, 201, _hurricane_u),
    FieldSpec("Hurricane", "TC", 3, 202, _hurricane_tc),
    FieldSpec("Nyx", "dark_matter", 3, 301, _nyx_dark_matter),
    FieldSpec("Nyx", "temperature", 3, 302, _nyx_temperature),
    FieldSpec("Nyx", "velocity_z", 3, 303, _nyx_velocity_z),
    FieldSpec("HACC", "xx", 1, 401, _hacc_xx),
    FieldSpec("HACC", "vx", 1, 402, _hacc_vx),
    FieldSpec("Brown", "pressure", 1, 501, _brown_pressure),
    FieldSpec("Miranda", "vx", 3, 601, _miranda_vx),
    FieldSpec("QMCPACK", "einspine", 3, 701, _qmcpack_einspine),
    FieldSpec("SCALE", "PRES", 3, 801, _scale_pres),
    FieldSpec("EXAFEL", "raw", 4, 901, _exafel_raw),
)


def generate(dataset: str, field: str, scale: str) -> np.ndarray:
    """Generate the synthetic stand-in for ``dataset/field`` at the shape
    :data:`repro.config.SHAPES` gives ``scale``. Deterministic in the
    field's fixed seed."""
    for spec in FIELDS:
        if spec.dataset == dataset and spec.field == field:
            return spec.gen(SHAPES[scale][dataset], spec.seed)
    raise KeyError(f"unknown field {dataset}/{field}")
