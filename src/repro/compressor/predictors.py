"""The three SZ predictors (§III-D): Lorenzo, linear interpolation, linear
regression — each with a faithful error-bounded compression path (predicting
from *reconstructed* values, as the real compressor must) and a sampling path
that collects prediction errors from *original* values (what the model uses,
§III-D-4).

Vectorization notes
-------------------
* **Lorenzo** uses the exact lattice identity: with linear-scaling
  quantization, every reconstructed value lies on the lattice ``2e·Z`` (the
  first point is predicted as 0, and each prediction is an integer
  combination of lattice points), so the sequential SZ loop is *exactly*
  equivalent to ``k = round(d/2e)`` followed by the integer Lorenzo
  transform ``q = Δ_0Δ_1…Δ_{d-1} k`` (successive first differences along
  each axis). Decompression is cumulative sums. This differs from SZ only in
  that quantization codes are unbounded integers (SZ caps the code range and
  stores outliers raw) — irrelevant for the model, which sees the same code
  histogram.
* **Interpolation** is level-by-level (SZ3-style): at stride ``s = 2^ℓ``
  each axis's midpoints are predicted as the mean of their two reconstructed
  neighbours; every point in a (level, axis) group is independent, so each
  group is one vectorized slice operation. Anchor points at the coarsest
  stride are stored raw (float32), as SZ3 does.
* **Regression** fits ``β0 + Σ βa·xa`` per 6^d block on original data;
  predictions depend only on the (stored, float32) coefficients, never on
  reconstructed neighbours, so the whole stage vectorizes over blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizer import dequantize, quantize

__all__ = ["PREDICTORS", "Lorenzo", "Interpolation", "Regression", "get_predictor"]


def _as64(data: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(data, dtype=np.float64)


@dataclass(frozen=True)
class SampledErrors:
    """Prediction errors sampled from original data, with per-sample weights
    that restore each stratum's share of the full dataset (Σ weights ≈ number
    of quantization codes the compressor will emit).

    ``group_ids`` (interpolation only) tags each sample with its
    (level, axis) refinement group, numbered in compression order
    (coarse → fine); the quality model uses this to propagate neighbour
    reconstruction-error variance level by level."""

    errors: np.ndarray
    weights: np.ndarray
    group_ids: np.ndarray | None = None


class _Base:
    name: str = "?"

    # -- model-facing metadata -------------------------------------------
    def coded_count(self, shape: tuple[int, ...]) -> int:
        """Number of quantization codes emitted for an array of ``shape``."""
        raise NotImplementedError

    def side_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the float32 side array (anchors / regression
        coefficients) stored next to the codes of an array of ``shape``."""
        return (0,)

    def side_bytes(self, shape: tuple[int, ...]) -> int:
        """Raw side-channel bytes (float32 side array)."""
        return 4 * math.prod(self.side_shape(shape))

    # -- compressor-facing API -------------------------------------------
    def compress(self, data: np.ndarray, eb: float) -> tuple[np.ndarray, np.ndarray]:
        """→ (int64 quantization codes, float32 side array of
        ``side_shape(data.shape)``)."""
        raise NotImplementedError

    def decompress(
        self, codes: np.ndarray, shape: tuple[int, ...], eb: float, side: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    # -- model-facing sampling (§III-D) ----------------------------------
    def sample_errors(
        self, data: np.ndarray, rate: float = 0.01, seed: int = 0
    ) -> SampledErrors:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Lorenzo
# ---------------------------------------------------------------------------
class Lorenzo(_Base):
    """First-order Lorenzo predictor, any dimensionality."""

    name = "lorenzo"

    def coded_count(self, shape):
        return int(np.prod(shape))

    @staticmethod
    def _forward(a: np.ndarray) -> np.ndarray:
        for ax in range(a.ndim):
            a = np.diff(a, axis=ax, prepend=0)
        return a

    @staticmethod
    def _inverse(a: np.ndarray) -> np.ndarray:
        for ax in range(a.ndim):
            a = np.cumsum(a, axis=ax)
        return a

    def compress(self, data, eb):
        k = quantize(_as64(data), eb)  # lattice index of each point
        q = self._forward(k)
        return q.ravel(), np.empty(0, np.float32)

    def decompress(self, codes, shape, eb, side):
        k = self._inverse(codes.reshape(shape).astype(np.int64))
        return dequantize(k, eb)

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        """Full prediction-error field on original values (= Lorenzo finite
        difference of the float data)."""
        return self._forward(_as64(data)).ravel()

    def sample_errors(self, data, rate=0.01, seed=0):
        # §III-D-1: randomly sample points, apply Lorenzo on original values.
        err = self.prediction_errors(data)
        n = err.size
        m = min(n, max(64, int(round(n * rate))))
        idx = np.random.default_rng(seed).choice(n, size=m, replace=False)
        w = np.full(m, n / m)
        return SampledErrors(err[idx], w)


# ---------------------------------------------------------------------------
# Multilevel linear interpolation
# ---------------------------------------------------------------------------
def _anchor_stride(shape: tuple[int, ...]) -> int:
    """Coarsest stride 2^L; ~4 anchor points along the largest axis."""
    return 1 << max(1, math.ceil(math.log2(max(shape))) - 2)


def _interp_groups(shape: tuple[int, ...], s0: int):
    """Yield (level-stride s, axis, target_slices, base_slices, n_targets)
    for every (level, axis) refinement group, in compression order."""
    ndim = len(shape)
    s = s0
    while s >= 2:
        h = s // 2
        for ax in range(ndim):
            tgt, base = [], []
            for a in range(ndim):
                if a < ax:
                    tgt.append(slice(0, None, h))
                    base.append(slice(0, None, h))
                elif a == ax:
                    tgt.append(slice(h, None, s))
                    base.append(slice(0, None, s))
                else:
                    tgt.append(slice(0, None, s))
                    base.append(slice(0, None, s))
            nt = len(range(h, shape[ax], s))
            if nt > 0:
                yield s, ax, tuple(tgt), tuple(base), nt
        s = h


def _axis_mid_pred(base: np.ndarray, nt: int, axis: int) -> np.ndarray:
    """Linear-interpolation prediction for ``nt`` midpoints along ``axis``:
    mean of the two neighbouring known points; degenerates to the left
    neighbour at the boundary (index clipping makes (l+l)/2 = l)."""
    left = np.take(base, np.arange(nt), axis=axis)
    ridx = np.minimum(np.arange(nt) + 1, base.shape[axis] - 1)
    right = np.take(base, ridx, axis=axis)
    return 0.5 * (left + right)


class Interpolation(_Base):
    """SZ3-style multilevel linear-interpolation predictor."""

    name = "interp"

    def side_shape(self, shape):
        s0 = _anchor_stride(shape)
        return tuple(len(range(0, n, s0)) for n in shape)  # float32 anchors

    def coded_count(self, shape):
        return math.prod(shape) - math.prod(self.side_shape(shape))

    def compress(self, data, eb):
        d = _as64(data)
        shape = d.shape
        s0 = _anchor_stride(shape)
        anchors_sl = tuple(slice(0, None, s0) for _ in shape)
        anchors = d[anchors_sl].astype(np.float32)
        r = np.zeros_like(d)
        r[anchors_sl] = anchors.astype(np.float64)
        parts = []
        for s, ax, tgt, base, nt in _interp_groups(shape, s0):
            pred = _axis_mid_pred(r[base], nt, ax)
            q = quantize(d[tgt] - pred, eb)
            r[tgt] = pred + dequantize(q, eb)
            parts.append(q.ravel())
        codes = np.concatenate(parts) if parts else np.empty(0, np.int64)
        return codes, anchors

    def decompress(self, codes, shape, eb, side):
        s0 = _anchor_stride(shape)
        anchors_sl = tuple(slice(0, None, s0) for _ in shape)
        r = np.zeros(shape, dtype=np.float64)
        r[anchors_sl] = side.astype(np.float64)
        pos = 0
        for s, ax, tgt, base, nt in _interp_groups(shape, s0):
            pred = _axis_mid_pred(r[base], nt, ax)
            m = pred.size
            q = codes[pos : pos + m].reshape(pred.shape)
            pos += m
            r[tgt] = pred + dequantize(q, eb)
        return r

    def sample_errors(self, data, rate=0.01, seed=0):
        # §III-D-2: stratified by level — coarser levels hold 2^-ndim the
        # points of the next finer one, so sampling a fixed fraction of each
        # (level, axis) group realizes the paper's level-scaled rates.
        d = _as64(data)
        g = np.random.default_rng(seed)
        errs, wts, gids = [], [], []
        for gi, (s, ax, tgt, base, nt) in enumerate(
            _interp_groups(d.shape, _anchor_stride(d.shape))
        ):
            pred = _axis_mid_pred(d[base], nt, ax)  # original-value prediction
            e = (d[tgt] - pred).ravel()
            # floor of 64/group keeps coarse-level statistics (quiescent
            # fractions, see quality_model.sigma_e2_interp) usable; coarse
            # groups are a vanishing fraction of points so the cost is nil
            m = min(e.size, max(64, int(round(e.size * rate))))
            idx = g.choice(e.size, size=m, replace=False)
            errs.append(e[idx])
            wts.append(np.full(m, e.size / m))
            gids.append(np.full(m, gi, dtype=np.int64))
        return SampledErrors(
            np.concatenate(errs), np.concatenate(wts), np.concatenate(gids)
        )


# ---------------------------------------------------------------------------
# Block linear regression
# ---------------------------------------------------------------------------
_BLOCK_EDGE = 6  # SZ3 uses 6x6x6 blocks (§III-D-3)


class Regression(_Base):
    """Per-block linear-regression predictor (SZ3's 6^d blocks).

    The array is edge-padded to a multiple of the block shape; the padding's
    codes are counted in the compressed size (and mirrored by the model via
    ``coded_count``), and cropped away on decompression.
    """

    name = "regression"

    def _block_shape(self, ndim: int) -> tuple[int, ...]:
        # 4D data (EXAFEL) blocks over the last three axes, as SZ3 treats
        # leading event/panel axes as batches.
        if ndim <= 3:
            return (_BLOCK_EDGE,) * ndim
        return (1,) * (ndim - 3) + (_BLOCK_EDGE,) * 3

    def _padded_shape(self, shape):
        bs = self._block_shape(len(shape))
        return tuple(-(-n // b) * b for n, b in zip(shape, bs))

    def coded_count(self, shape):
        return int(np.prod(self._padded_shape(shape)))

    def side_shape(self, shape):
        bs = self._block_shape(len(shape))
        nblocks = math.prod(p // b for p, b in zip(self._padded_shape(shape), bs))
        ncoef = 1 + sum(1 for b in bs if b > 1)
        return (nblocks, ncoef)  # float32 coefficients

    def _to_blocks(self, d: np.ndarray) -> np.ndarray:
        """(…)-array → (nblocks, *block_shape), after edge padding."""
        bs = self._block_shape(d.ndim)
        ps = self._padded_shape(d.shape)
        pad = [(0, p - n) for n, p in zip(d.shape, ps)]
        d = np.pad(d, pad, mode="edge")
        nb = [p // b for p, b in zip(ps, bs)]
        # reshape to interleaved (nb0, b0, nb1, b1, …) then bring block axes last
        inter = []
        for n, b in zip(nb, bs):
            inter += [n, b]
        d = d.reshape(inter)
        perm = list(range(0, 2 * len(bs), 2)) + list(range(1, 2 * len(bs), 2))
        return d.transpose(perm).reshape((-1,) + bs)

    def _from_blocks(self, blocks: np.ndarray, shape) -> np.ndarray:
        bs = self._block_shape(len(shape))
        ps = self._padded_shape(shape)
        nb = [p // b for p, b in zip(ps, bs)]
        d = blocks.reshape(tuple(nb) + bs)
        perm = []
        for i in range(len(bs)):
            perm += [i, len(bs) + i]
        d = d.transpose(perm).reshape(ps)
        return d[tuple(slice(0, n) for n in shape)]

    def _coords(self, bs):
        """Centered block-local coordinate grids for axes with extent > 1."""
        grids = np.meshgrid(
            *[np.arange(b, dtype=np.float64) - (b - 1) / 2.0 for b in bs],
            indexing="ij",
        )
        return [g for g, b in zip(grids, bs) if b > 1]

    def _fit(self, blocks: np.ndarray) -> np.ndarray:
        """→ float32 coefficients (nblocks, 1+naxes): [β0, βa…]."""
        bs = blocks.shape[1:]
        flat = blocks.reshape(blocks.shape[0], -1)
        coords = self._coords(bs)
        cols = [flat.mean(axis=1)]
        for g in coords:
            gf = g.ravel()
            cols.append(flat @ gf / float(gf @ gf))
        return np.stack(cols, axis=1).astype(np.float32)

    def _predict(self, coefs: np.ndarray, bs) -> np.ndarray:
        coords = self._coords(bs)
        c64 = coefs.astype(np.float64)
        pred = np.broadcast_to(
            c64[:, 0].reshape((-1,) + (1,) * len(bs)), (coefs.shape[0],) + bs
        ).copy()
        for a, g in enumerate(coords):
            pred += c64[:, a + 1].reshape((-1,) + (1,) * len(bs)) * g
        return pred

    def compress(self, data, eb):
        d = _as64(data)
        blocks = self._to_blocks(d)
        coefs = self._fit(blocks)
        pred = self._predict(coefs, blocks.shape[1:])
        q = quantize(blocks - pred, eb)
        return q.ravel(), coefs

    def decompress(self, codes, shape, eb, side):
        bs = self._block_shape(len(shape))
        pred = self._predict(side, bs)
        q = codes.reshape(pred.shape)
        return self._from_blocks(pred + dequantize(q, eb), shape)

    def sample_errors(self, data, rate=0.01, seed=0):
        # §III-D-3: sample whole blocks, fit, collect residuals.
        d = _as64(data)
        blocks = self._to_blocks(d)
        nb = blocks.shape[0]
        # floor of 64 blocks: at paper scale 1% of blocks is thousands, but a
        # laptop-scale chunk can have ~1e3 blocks where 1% is unrepresentative
        m = min(nb, max(64, int(round(nb * rate))))
        idx = np.random.default_rng(seed).choice(nb, size=m, replace=False)
        sub = blocks[idx]
        coefs = self._fit(sub)
        pred = self._predict(coefs, sub.shape[1:])
        errs = (sub - pred).ravel()
        w = np.full(errs.size, nb / m)
        return SampledErrors(errs, w)


PREDICTORS: dict[str, _Base] = {
    p.name: p for p in (Lorenzo(), Interpolation(), Regression())
}


def get_predictor(name: str) -> _Base:
    try:
        return PREDICTORS[name]
    except KeyError:
        raise KeyError(f"unknown predictor {name!r}; have {sorted(PREDICTORS)}")
