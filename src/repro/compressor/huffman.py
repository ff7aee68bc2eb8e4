"""Canonical Huffman coder over integer quantization codes (§III-C-1).

Provides an exact *size* computation (Σ freq·len — identical to the size
of a real encoding, used by the measurement harness at benchmark scale), a
real bitstream encoder (the lossless stage compresses its packed output),
and a per-bit reference decoder that the round-trip tests check the encoder
against (``pipeline.decompress`` reuses the in-memory codes instead).

Building and encoding cost a few numpy passes over the stream; Python loops
run only over the distinct symbols:

- histogram: ``np.bincount`` over the symbol span when the span is no larger
  than the stream (quantization codes), else ``np.unique``;
- code lengths: a heap of ``(count, node id)`` merges with a parent per
  node, then one reverse sweep for the depths;
- encoder: each symbol's length and codeword come from a table over the
  symbol span (``searchsorted`` when the span is sparse); a ``cumsum`` gives
  each codeword's end bit, one shift places it in the 64-bit word holding
  its last bit, ``np.bitwise_or.reduceat`` merges each word's codewords
  (contiguous, since the positions are sorted), and the at most one
  codeword per word boundary that straddles it is split in two. The words
  are emitted big-endian and cut to ``ceil(bits / 8)`` bytes, the same bytes
  as MSB-first bit packing. Codewords are ``uint64``, so lengths above 64
  bits are refused.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["HuffmanCode", "build", "codebook_bytes"]

_WORD_MASK = (1 << 64) - 1


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
        """Encode ``stream`` → packed bytes (MSB first, zero-padded to a byte).

        Raises ``ValueError`` for a symbol the code does not hold, or for a
        code with a codeword longer than the 64-bit words it is packed into.
        """
        stream = np.asarray(stream, dtype=np.int64).ravel()
        if int(self.lengths.max(initial=0)) > 64:
            raise ValueError("Huffman codeword longer than 64 bits")
        if stream.size == 0:
            return b""
        lens, cws = self._lookup(stream)  # fresh arrays, reused in place below
        ends = np.cumsum(lens, out=lens)
        total = int(ends[-1])
        # the last codeword to reach each word boundary; it straddles the
        # boundary if it ends past it, and the next codeword starts the word
        bound = np.arange(1, -(-total // 64), dtype=np.int64) << 6
        last = np.searchsorted(ends, bound)
        tail = ends[last] - bound
        split = np.flatnonzero(tail)
        s = last[split]
        head = cws[s] >> tail[split].view(np.uint64)
        # shift each codeword to where its last bit falls in its 64-bit word;
        # for a straddler that leaves exactly its tail, for the next word
        shift = np.negative(ends, out=ends)
        shift &= 63
        part = np.left_shift(cws, shift.view(np.uint64), out=cws)
        spill = part[s]
        part[s] = head
        first = np.concatenate(([0], last + 1))
        m = len(first) - int(first[-1] == len(part))  # last word: maybe a tail only
        out = np.zeros(len(first), dtype=np.uint64)
        out[:m] = np.bitwise_or.reduceat(part, first[:m])
        out[split + 1] |= spill
        return out.astype(">u8").tobytes()[: -(-total // 8)]

    def _lookup(self, stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(code length, codeword) of every symbol of ``stream``."""
        k = len(self.symbols)
        if k == 0:
            raise ValueError("symbol not in the Huffman code")
        lo = int(self.symbols[0])
        span = int(self.symbols[-1]) - lo + 1
        if _dense(span, stream.size):
            off = stream - lo
            if int(off.view(np.uint64).max()) >= span:
                raise ValueError("symbol not in the Huffman code")
            lens = np.zeros(span, dtype=np.int64)
            cws = np.zeros(span, dtype=np.uint64)
            lens[self.symbols - lo] = self.lengths
            cws[self.symbols - lo] = self.codes
            lens, cws = lens[off], cws[off]
            if int(lens.min()) == 0:  # a hole in the span
                raise ValueError("symbol not in the Huffman code")
            return lens, cws
        idx = np.minimum(np.searchsorted(self.symbols, stream), k - 1)
        if not np.array_equal(self.symbols[idx], stream):
            raise ValueError("symbol not in the Huffman code")
        return self.lengths[idx], self.codes[idx]

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
        symbols, cnts = _histogram(np.asarray(stream_or_counts, np.int64).ravel())
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
    lengths = _code_lengths(cnts.tolist())
    # canonical code assignment: sort by (length, symbol); codewords longer
    # than 64 bits keep their low 64 bits (``encode`` refuses such a code)
    order = np.lexsort((symbols, lengths))
    sorted_codes = []
    code = prev_len = 0
    for ln in lengths[order].tolist():
        code <<= ln - prev_len
        sorted_codes.append(code & _WORD_MASK)
        code += 1
        prev_len = ln
    codes = np.empty(k, dtype=np.uint64)
    codes[order] = sorted_codes
    return HuffmanCode(symbols, cnts, lengths, codes)


def _dense(span: int, n: int) -> bool:
    """Whether a table over a symbol span costs no more than a pass over an
    ``n``-symbol stream (the usual case for quantization codes)."""
    return span <= n


def _histogram(stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct symbols and their counts: ``np.bincount`` over a dense
    span, else ``np.unique`` (a sort)."""
    if stream.size:
        lo, hi = int(stream.min()), int(stream.max())
        if _dense(hi - lo + 1, stream.size):
            cnt = np.bincount(stream - lo)
            present = np.flatnonzero(cnt)
            return present + lo, cnt[present]
    return np.unique(stream, return_counts=True)


def _code_lengths(counts: list[int]) -> np.ndarray:
    """Huffman code length per symbol (k ≥ 2).

    The heap holds ``(count, node id)``: leaves are 0..k-1, merged nodes get
    k, k+1, ... in merge order, so equal counts pop leaves first and older
    merges before newer ones. Parents always have larger ids than their
    children, so one reverse sweep gives every node's depth.
    """
    k = len(counts)
    heap = list(zip(counts, range(k)))
    heapq.heapify(heap)
    parent = [0] * (2 * k - 1)
    for node in range(k, 2 * k - 1):
        c1, a = heapq.heappop(heap)
        c2, b = heap[0]
        heapq.heapreplace(heap, (c1 + c2, node))
        parent[a] = parent[b] = node
    depth = [0] * (2 * k - 1)
    for i in range(2 * k - 3, -1, -1):
        depth[i] = depth[parent[i]] + 1
    return np.array(depth[:k], dtype=np.int64)


def codebook_bytes(n_symbols: int) -> int:
    """Serialized codebook size we charge to the compressed stream: 4-byte
    symbol + 1-byte code length per distinct symbol (canonical codes are
    reconstructible from lengths alone)."""
    return 5 * n_symbols
