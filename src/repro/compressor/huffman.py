"""Canonical Huffman coder over integer quantization codes (§III-C-1).

Provides an exact *size* computation (Σ freq·len — identical to the size
of a real encoding), a bitstream encoder, and the decoder that
``pipeline.from_bytes`` reads stored blobs with (``pipeline.decompress``
reuses the in-memory codes).

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

__all__ = ["HuffmanCode", "build", "codebook_bytes", "from_lengths"]

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
        # per length: sorted index minus canonical codeword, and the
        # left-justified limit below which a window starts a codeword this
        # long or shorter
        base, limits, code, done = [], [], 0, 0
        for ln, m in enumerate(np.bincount(lengths)[1:].tolist(), 1):
            base.append(done - code)
            code, done = code + m, done + m
            limits.append(code << (64 - ln))
            code <<= 1
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
        idx += np.array(base)[ln - 1]
        return self.symbols[np.lexsort((self.symbols, lengths))[idx]]


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
    if len(symbols) > 1:
        lengths = _code_lengths(cnts.tolist())
    else:
        lengths = np.ones(len(symbols), np.int64)
    return from_lengths(symbols, lengths, cnts)


def from_lengths(symbols, lengths, counts) -> HuffmanCode:
    """The canonical code over sorted int64 ``symbols`` with these code
    lengths (what a stored codebook holds). Codewords rise in (length,
    symbol) order; codewords longer than 64 bits keep their low 64 bits
    (``encode`` refuses such a code)."""
    order = np.lexsort((symbols, lengths))
    sorted_codes = []
    code = prev_len = 0
    for ln in lengths[order].tolist():
        code <<= ln - prev_len
        sorted_codes.append(code & _WORD_MASK)
        code += 1
        prev_len = ln
    codes = np.empty(len(symbols), dtype=np.uint64)
    codes[order] = sorted_codes
    return HuffmanCode(symbols, counts, lengths, codes)


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
