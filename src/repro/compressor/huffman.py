"""Canonical Huffman coder over integer quantization codes (§III-C-1).

Provides an exact *size* computation (Σ freq·len — identical to the size
of a real encoding), a bitstream encoder, and the decoder that
``pipeline.from_bytes`` reads stored blobs with (``pipeline.decompress``
reuses the in-memory codes).

Building and encoding cost a few numpy passes over the stream; Python loops
run only over the distinct symbols or code lengths:

- histogram (``histogram``, the one binning rule of the repository: the
  model's estimated code histogram is counted by it too): ``np.bincount``
  over the symbol span when the span is no larger than the stream
  (quantization codes), else ``np.unique`` and a ``bincount`` of its
  inverse; symbols with no count are dropped;
- code lengths: a heap of ``(count, node id)`` merges with a parent per
  node, then one reverse sweep for the depths;
- codewords: ``_canonical`` states the canonical rule once, as a table per
  code length that gives ``from_lengths`` every codeword and ``decode`` its
  limits and symbol map;
- encoder: each symbol's length and codeword come from a table over the
  symbol span (``searchsorted`` when the span is sparse); a ``cumsum`` gives
  each codeword's end bit, one shift places it in the 64-bit word holding
  its last bit, ``np.bitwise_or.reduceat`` merges each word's codewords
  (contiguous, since the positions are sorted), and the at most one
  codeword per word boundary that straddles it is split in two. The words
  are emitted big-endian and cut to ``ceil(bits / 8)`` bytes, the same bytes
  as MSB-first bit packing. Codewords are ``uint64``, so lengths above 64
  bits are refused;
- decoder (canonical, as in cuSZ, Tian et al., PACT 2020): at every bit
  position p the 64-bit big-endian window at byte ``p >> 3``, shifted left
  by ``p & 7``, gives the code length by ``searchsorted`` on each length's
  left-justified limit; pointer doubling on ``next = p + len`` collects the
  n symbol starts. The window holds 57 bits, so longer codes are refused
  (such a code needs at least F(59) ~ 9.6e11 symbols).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["HuffmanCode", "build", "from_lengths", "histogram"]

_WORD_MASK = (1 << 64) - 1
MAX_DECODE_BITS = 57  # data bits in a decoder window


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
        """Decode ``n`` symbols from packed bytes (MSB first, zero-padded).

        Reads only ``symbols`` and ``lengths`` (codewords are canonical).
        Raises ``ValueError`` for code lengths outside 1..57 or lengths that
        oversubscribe the code space, for a bitstream that ends before ``n``
        symbols or where no codeword starts, and for bytes after the last one.
        """
        lengths, nbits = self.lengths, 8 * len(data)
        if n == 0 or lengths.size == 0:
            if n or data:
                raise ValueError("Huffman bitstream does not hold n symbols")
            return np.empty(0, np.int64)
        top = int(lengths.max())
        if int(lengths.min()) < 1 or top > MAX_DECODE_BITS:
            raise ValueError(f"Huffman code lengths must be 1..{MAX_DECODE_BITS}")
        order, count, first, code = _canonical(self.symbols, lengths)
        # per length, one past its last codeword, left-justified: the limit
        # below which a window starts a codeword this long or shorter
        limits = [(code[ln] + count[ln]) << (64 - ln) for ln in range(1, top + 1)]
        if limits[-1] > 1 << 64:
            raise ValueError("Huffman code lengths oversubscribe the code space")
        # a complete code's top limit is 2**64, above every window
        limits = np.array(limits[: top - (limits[-1] >> 64)], np.uint64)
        # the 64-bit big-endian window at each bit position p: the word at
        # byte p >> 3 shifted left by p & 7 (at least 57 bits of data)
        raw, word = np.frombuffer(data + bytes(7), np.uint8), np.zeros(len(data), np.uint64)
        for j in range(8):
            word = word << np.uint64(8) | raw[j : j + len(data)]
        window = np.repeat(word, 8) << np.tile(np.arange(8, dtype=np.uint64), len(data))
        # code length at each position, past the end where no codeword
        # starts; position nbits is the absorbing end of the stream
        length = np.searchsorted(limits, window, side="right") + 1
        length[length > top] = nbits + 1
        length = np.append(length, nbits + 1)
        nxt = np.minimum(np.arange(nbits + 1) + length, nbits)
        # pointer doubling: the first 2^k starts, then their 2^k-th successors
        starts = np.zeros(1, np.int64)
        while starts.size < n:
            if starts.size > 1:
                nxt = nxt[nxt]
            starts = np.concatenate((starts, nxt[starts]))
        starts = starts[:n]
        end = int(starts[-1] + length[starts[-1]])
        if end > nbits:
            raise ValueError("Huffman bitstream ends before n symbols (or no codeword starts)")
        if -(-end // 8) != len(data):
            raise ValueError("bytes after the last Huffman codeword")
        ln = length[starts]
        idx = (window[starts] >> (64 - ln).astype(np.uint64)).astype(np.int64)
        idx += np.subtract(first, code)[ln]  # codeword → sorted index
        return self.symbols[order[idx]]


def build(stream: np.ndarray) -> HuffmanCode:
    """Build the canonical Huffman code of an int64 code stream."""
    symbols, cnts = histogram(stream)
    if len(symbols) > 1:
        lengths = _code_lengths(cnts.tolist())
    else:
        lengths = np.ones(len(symbols), np.int64)
    return from_lengths(symbols, lengths, cnts)


def from_lengths(symbols, lengths, counts) -> HuffmanCode:
    """The canonical code over sorted int64 ``symbols`` with these code
    lengths (what a stored codebook holds), by ``_canonical``'s rule.
    Codewords longer than 64 bits keep their low 64 bits (``encode``
    refuses such a code)."""
    order, count, first, code = _canonical(symbols, lengths)
    # each codeword: its length's first (low 64 bits) plus its rank there
    rank = (np.arange(len(order)) - np.repeat(first, count)).astype(np.uint64)
    codes = np.empty(len(symbols), dtype=np.uint64)
    codes[order] = np.repeat(np.array([c & _WORD_MASK for c in code], np.uint64), count) + rank
    return HuffmanCode(symbols, counts, lengths, codes)


def _canonical(symbols: np.ndarray, lengths: np.ndarray):
    """The canonical rule, stated once: codewords rise in (length, symbol)
    order, and each length starts one past the previous length's last
    codeword, shifted left by one. Returns that order (as ``lexsort``
    indices) and, per length 0..max, its symbol count, first sorted index
    and first codeword (Python ints, exact at any length)."""
    order = np.lexsort((symbols, lengths))
    count = np.bincount(lengths, minlength=1).tolist()
    first, code = np.cumsum([0] + count[:-1]).tolist(), [0]
    for m in count[:-1]:
        code.append((code[-1] + m) << 1)
    return order, count, first, code


def _dense(span: int, n: int) -> bool:
    """Whether a table over a symbol span costs no more than a pass over an
    ``n``-symbol stream (the usual case for quantization codes)."""
    return span <= n


def histogram(
    stream: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct int64 symbols of ``stream`` and their counts (the
    sum of their nonnegative ``weights``, if given): ``np.bincount`` over a
    dense span, else ``np.unique`` and a ``bincount`` of its inverse. Either
    way each symbol's weights add up in stream order. Symbols whose count
    is zero are dropped."""
    stream = np.asarray(stream, np.int64).ravel()
    lo, hi = (int(stream.min()), int(stream.max())) if stream.size else (0, -1)
    if _dense(hi - lo + 1, stream.size):
        symbols, inv = np.arange(lo, hi + 1, dtype=np.int64), stream - lo
    else:
        symbols, inv = np.unique(stream, return_inverse=True)
    cnt = np.bincount(inv, weights)
    present = np.flatnonzero(cnt)
    return symbols[present], cnt[present]


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
