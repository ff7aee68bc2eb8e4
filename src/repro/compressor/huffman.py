"""Canonical Huffman coder over integer quantization codes (§III-C-1).

Provides an exact *size* computation (Σ freq·len — identical to the size
of a real encoding, used by the measurement harness at benchmark scale), a
real bitstream encoder (the lossless stage compresses its packed output),
and a per-bit reference decoder that the round-trip tests check the encoder
against (``pipeline.decompress`` reuses the in-memory codes instead).

The encoder is vectorized: per output-bit-position scatter into a boolean
bit array, then ``np.packbits``; at most ``max_code_len`` passes.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["HuffmanCode", "build", "codebook_bytes"]


@dataclass
class HuffmanCode:
    """A built Huffman code over the distinct symbols of one code stream."""

    symbols: np.ndarray  # distinct int64 symbols, sorted
    counts: np.ndarray  # frequency of each symbol
    lengths: np.ndarray  # code length (bits) per symbol
    codes: np.ndarray  # canonical codeword (as uint64) per symbol

    @property
    def total_bits(self) -> int:
        """Exact payload size in bits of encoding the full stream."""
        return int((self.counts * self.lengths.astype(np.int64)).sum())

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def bitrate(self) -> float:
        """Average bits per encoded symbol."""
        return self.total_bits / max(1, self.n)

    # ------------------------------------------------------------------
    def encode(self, stream: np.ndarray) -> bytes:
        """Encode ``stream`` (must only contain known symbols) → packed bytes."""
        idx = np.searchsorted(self.symbols, stream)
        lens = self.lengths[idx].astype(np.int64)
        ends = np.cumsum(lens)
        starts = ends - lens
        total = int(ends[-1]) if len(ends) else 0
        bits = np.zeros(total, dtype=np.uint8)
        cws = self.codes[idx]
        maxlen = int(self.lengths.max(initial=0))
        for b in range(maxlen):
            m = lens > b
            if not m.any():
                break
            # bit b of each codeword, MSB first
            bits[starts[m] + b] = (cws[m] >> (lens[m] - 1 - b).astype(np.uint64)) & 1
        return np.packbits(bits).tobytes()

    def decode(self, data: bytes, n: int) -> np.ndarray:
        """Decode ``n`` symbols from packed bytes (test-scale Python loop)."""
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        # canonical decode tables: first codeword / first symbol index per length
        out = np.empty(n, dtype=np.int64)
        order = np.argsort(self.lengths, kind="stable")
        by_len: dict[int, dict[int, int]] = {}
        for i in order:
            by_len.setdefault(int(self.lengths[i]), {})[int(self.codes[i])] = int(
                self.symbols[i]
            )
        pos = 0
        for j in range(n):
            code, ln = 0, 0
            while True:
                code = (code << 1) | int(bits[pos])
                pos += 1
                ln += 1
                tab = by_len.get(ln)
                if tab is not None and code in tab:
                    out[j] = tab[code]
                    break
                if ln > 64:
                    raise ValueError("corrupt Huffman stream")
        return out


def build(stream_or_counts, counts: np.ndarray | None = None) -> HuffmanCode:
    """Build a canonical Huffman code.

    Either ``build(stream)`` with the raw int64 code stream, or
    ``build(symbols, counts)`` with a precomputed histogram.
    """
    if counts is None:
        symbols, cnts = np.unique(np.asarray(stream_or_counts, np.int64), return_counts=True)
    else:
        symbols = np.asarray(stream_or_counts, np.int64)
        cnts = np.asarray(counts, np.int64)
        keep = cnts > 0
        symbols, cnts = symbols[keep], cnts[keep]
        order = np.argsort(symbols)
        symbols, cnts = symbols[order], cnts[order]
    k = len(symbols)
    if k == 0:
        return HuffmanCode(symbols, cnts, np.empty(0, np.int64), np.empty(0, np.uint64))
    if k == 1:
        return HuffmanCode(
            symbols, cnts, np.ones(1, np.int64), np.zeros(1, np.uint64)
        )
    # standard heap merge to get code lengths
    heap: list[tuple[int, int, list[int]]] = [
        (int(c), i, [i]) for i, c in enumerate(cnts)
    ]
    heapq.heapify(heap)
    lengths = np.zeros(k, dtype=np.int64)
    tie = k
    while len(heap) > 1:
        c1, _, l1 = heapq.heappop(heap)
        c2, _, l2 = heapq.heappop(heap)
        for i in l1 + l2:
            lengths[i] += 1
        tie += 1
        heapq.heappush(heap, (c1 + c2, tie, l1 + l2))
    # canonical code assignment: sort by (length, symbol)
    order = np.lexsort((symbols, lengths))
    codes = np.zeros(k, dtype=np.uint64)
    code = 0
    prev_len = 0
    for i in order:
        code <<= int(lengths[i]) - prev_len
        codes[i] = code
        code += 1
        prev_len = int(lengths[i])
    return HuffmanCode(symbols, cnts, lengths, codes)


def codebook_bytes(n_symbols: int) -> int:
    """Serialized codebook size we charge to the compressed stream: 4-byte
    symbol + 1-byte code length per distinct symbol (canonical codes are
    reconstructible from lengths alone)."""
    return 5 * n_symbols
