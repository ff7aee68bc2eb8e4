"""The three SZ predictors (§III-D): Lorenzo, linear interpolation, linear
regression — each with a faithful error-bounded compression path (predicting
from *reconstructed* values, as the real compressor must) and a sampling path
that collects prediction errors from *original* values (what the model uses,
§III-D-4).

Sampling is one stratified walk in ``_Base`` over the strata each predictor
declares (``_strata``). Its draw is the model's one sample, which Table II's
"Sample Err." (``core.sampling``) reads against ``prediction_errors``.

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
  stride are stored raw (float32), as SZ3 does; ``compress`` raises
  ``ValueError`` when float32 anchors would miss a (float64) field by more
  than the error bound.
* **Regression** fits ``β0 + Σ βa·xa`` per 6^d block on original data;
  predictions depend only on the (stored, float32) coefficients, never on
  reconstructed neighbours, so the whole stage vectorizes over blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizer import dequantize, quantize

__all__ = ["PREDICTORS", "Lorenzo", "Interpolation", "Regression", "get_predictor",
           "draw_sample", "SAMPLE_FLOOR"]


def _as64(data: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(data, dtype=np.float64)


@dataclass(frozen=True)
class SampledErrors:
    """Prediction errors sampled from original data, with per-sample weights
    that restore each stratum's share of the full dataset (Σ weights ≈ number
    of quantization codes the compressor will emit).

    ``group_ids`` tags each sample with its stratum; for interpolation that
    is its (level, axis) refinement group in compression order (coarse →
    fine), which the quality model uses to propagate neighbour
    reconstruction-error variance level by level."""

    errors: np.ndarray
    weights: np.ndarray
    group_ids: np.ndarray


#: Fewest items (points, blocks, one interpolation level-group) a sample
#: draws, or all when there are fewer: at paper scale 1% dominates; at laptop
#: scale the floor keeps small strata statistically usable.
SAMPLE_FLOOR = 64


def draw_sample(n: int, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Indices of a ``rate`` sample of ``n`` items, drawn without
    replacement and floored at ``SAMPLE_FLOOR``, with the weight ``n/m``
    that restores each of the ``m`` samples' share of the population."""
    m = min(n, max(SAMPLE_FLOOR, int(round(n * rate))))
    return rng.choice(n, size=m, replace=False), n / m


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
    def _strata(self, d: np.ndarray) -> list[tuple]:
        """Sampling strata of the float64 field ``d``, in order: (number of
        items, function from item indices to those items' original-value
        prediction errors, flat and the same count per item)."""
        raise NotImplementedError

    def sample_errors(self, data: np.ndarray, rate: float, seed: int) -> SampledErrors:
        """A ``draw_sample`` of every stratum, in order, from one RNG;
        weighted back to the stratum's size and tagged with its id."""
        rng = np.random.default_rng(seed)
        errs, wts = [], []
        for n, errors_at in self._strata(_as64(data)):
            idx, w = draw_sample(n, rate, rng)
            errs.append(errors_at(idx))
            wts.append(w)
        sizes = [e.size for e in errs]
        return SampledErrors(
            np.concatenate([np.empty(0), *errs]),
            np.repeat(np.asarray(wts, np.float64), sizes),
            np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        )

    def prediction_errors(self, data: np.ndarray) -> np.ndarray:
        """Every original-value prediction error, stratum by stratum in
        item order (the population ``sample_errors`` draws from)."""
        strata = self._strata(_as64(data))
        return np.concatenate([np.empty(0), *(errors_at(np.arange(n)) for n, errors_at in strata)])


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
        """Successive first differences along every axis, the first element
        of each kept (``np.diff(prepend=0)`` per axis, bit for bit), each
        axis written into one new array. ``a`` is int64 or float64 and is
        not modified."""
        for ax in range(a.ndim):
            d = np.empty_like(a)
            head, tail, prev = (
                tuple(slice(*s) if i == ax else slice(None) for i in range(a.ndim))
                for s in ((0, 1), (1, None), (0, -1))
            )
            d[head] = a[head]
            np.subtract(a[tail], a[prev], out=d[tail])
            a = d
        return a

    @staticmethod
    def _inverse(a: np.ndarray) -> np.ndarray:
        """Cumulative sums along every axis (``np.cumsum`` per axis, bit for
        bit) in place on one copy of ``a``, int64 for integer codes:
        row by row on the leading axes, one in-place ``cumsum`` on the
        last."""
        k = np.array(a, dtype=np.result_type(a, np.int64))
        for ax in range(k.ndim - 1):
            rows = np.moveaxis(k, ax, 0)
            for i in range(1, rows.shape[0]):
                rows[i] += rows[i - 1]
        np.cumsum(k, axis=-1, out=k)
        return k

    def compress(self, data, eb):
        q = self._forward(quantize(data, eb))  # of each point's lattice index
        return q.ravel(), np.empty(0, np.float32)

    def decompress(self, codes, shape, eb, side):
        return dequantize(self._inverse(codes.reshape(shape)), eb)

    def _strata(self, d):
        # §III-D-1: points; each one's error is the finite difference
        return [(d.size, lambda idx: self._forward(d).ravel()[idx])]


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
        if np.abs(r[anchors_sl] - d[anchors_sl]).max() > eb:
            raise ValueError("interp anchors are stored as float32, which misses this field by more than eb")
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

    def _strata(self, d):
        # §III-D-2: stratified by level — coarser levels hold 2^-ndim the
        # points of the next finer one, so sampling a fixed fraction of each
        # (level, axis) group realizes the paper's level-scaled rates. The
        # per-group floor keeps coarse-level statistics (quiescent
        # fractions, see quality_model.sigma_e2_interp) usable; coarse
        # groups are a vanishing fraction of points so the cost is nil.
        groups = _interp_groups(d.shape, _anchor_stride(d.shape))
        errs = [(d[t] - _axis_mid_pred(d[b], nt, ax)).ravel() for _, ax, t, b, nt in groups]
        return [(e.size, e.__getitem__) for e in errs]


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
        # einsum, not BLAS, whose rounding depends on a row's position: a
        # block's fit must not depend on the other blocks fitted with it
        for g in coords:
            gf = g.ravel()
            cols.append(np.einsum("ij,j->i", flat, gf) / float(gf @ gf))
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

    def _residuals(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """→ (``blocks`` minus their own fit, float32 coefficients)."""
        coefs = self._fit(blocks)
        return blocks - self._predict(coefs, blocks.shape[1:]), coefs

    def compress(self, data, eb):
        res, coefs = self._residuals(self._to_blocks(_as64(data)))
        return quantize(res, eb).ravel(), coefs

    def decompress(self, codes, shape, eb, side):
        bs = self._block_shape(len(shape))
        pred = self._predict(side, bs)
        q = codes.reshape(pred.shape)
        return self._from_blocks(pred + dequantize(q, eb), shape)

    def _strata(self, d):
        # §III-D-3: whole blocks; only the drawn ones are fitted
        blocks = self._to_blocks(d)
        return [(blocks.shape[0], lambda idx: self._residuals(blocks[idx])[0].ravel())]


PREDICTORS: dict[str, _Base] = {
    p.name: p for p in (Lorenzo(), Interpolation(), Regression())
}


def get_predictor(name: str) -> _Base:
    try:
        return PREDICTORS[name]
    except KeyError:
        raise KeyError(f"unknown predictor {name!r}; have {sorted(PREDICTORS)}")
