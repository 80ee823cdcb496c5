"""Lossless range coding of integer symbols under quantized Gaussian cdfs.

The coder is a standard 32-bit range coder with 16-bit probability
precision and byte-wise carry propagation (cache plus pending-0xFF
counter).  Streams are self-delimiting only through the caller knowing
the symbol count; the flush emits five bytes, so the total overhead per
stream is bounded by 64 bits.  See docs/bitstream.md for the byte-exact
procedure.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np
from scipy.special import erf as _erf

from .constants import (
    ALPHABET_SIZE,
    PROB_TOTAL,
    SIGMA_MAX,
    SIGMA_MIN,
    SYMBOL_MAX,
    SYMBOL_MIN,
)
from .errors import CoderError, DecodeError

_TOP = 1 << 24
_MASK32 = (1 << 32) - 1
_SQRT2 = math.sqrt(2.0)
# float32 scale heads round SIGMA_MIN down to 0.0399999991; admit that floor
_SIGMA_FLOOR = float(np.float32(SIGMA_MIN))


def _std_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(x / _SQRT2))


def _check_sigma(sigma: np.ndarray) -> None:
    if not np.all((sigma >= _SIGMA_FLOOR) & (sigma <= SIGMA_MAX + 1e-12)):
        raise CoderError(f"sigma outside [{SIGMA_MIN}, {SIGMA_MAX}]")


def build_cdf_batch(mu_frac: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Quantized cumulative counts, one row of length ALPHABET_SIZE+1 per
    (mu_frac, sigma) pair.

    Bin m in [-63, 62] carries the Gaussian mass of (m - mu_frac - 0.5,
    m - mu_frac + 0.5]; the edge bins -64 and 63 absorb the full lower
    and upper tails.  Real probabilities are converted to 16-bit counts
    by largest-remainder rounding with a minimum count of 1 per symbol,
    so every row sums to exactly PROB_TOTAL.
    """
    mu_frac = np.atleast_1d(np.asarray(mu_frac, dtype=np.float64))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if mu_frac.shape != sigma.shape or mu_frac.ndim != 1:
        raise CoderError("mu_frac and sigma must be equal-length 1-d arrays")
    if np.any((mu_frac < 0.0) | (mu_frac >= 1.0)):
        raise CoderError("mu_frac must lie in [0, 1)")
    _check_sigma(sigma)

    n = mu_frac.shape[0]
    edges = np.arange(SYMBOL_MIN, SYMBOL_MAX + 1, dtype=np.float64) + 0.5
    upper = _std_cdf((edges[None, :] - mu_frac[:, None]) / sigma[:, None])
    upper[:, -1] = 1.0                           # fold the high tail into bin 63
    pmf = np.diff(upper, axis=1, prepend=0.0)    # bin -64 takes the low tail
    counts = _largest_remainder(pmf * PROB_TOTAL, PROB_TOTAL)

    # Enforce a minimum count of 1.  The subsidy for empty bins is paid by
    # the other bins proportionally to their headroom, keeping the dominant
    # bin accurate; it only pays when nothing else can (very small sigma).
    zeros = counts == 0
    subsidy = zeros.sum(axis=1)
    counts[zeros] = 1
    rows = np.arange(n)
    top = np.argmax(counts, axis=1)
    caps = counts - 1
    caps[rows, top] = 0
    total_cap = caps.sum(axis=1)
    payable = np.minimum(subsidy, total_cap)
    safe_total = np.where(total_cap > 0, total_cap, 1)
    counts -= _largest_remainder(payable[:, None] * caps / safe_total[:, None], payable)
    counts[rows, top] -= subsidy - payable
    if np.any(counts <= 0):
        raise CoderError("cdf construction produced a non-positive count")

    cdf = np.zeros((n, ALPHABET_SIZE + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=cdf[:, 1:])
    return cdf


def _largest_remainder(scaled: np.ndarray, target) -> np.ndarray:
    """Round rows of nonnegative reals to integers summing to target.

    The deficit goes one count each to the bins with the largest
    fractions, ties to the lower column.
    """
    n, width = scaled.shape
    counts = np.floor(scaled).astype(np.int64)
    frac = scaled - counts
    deficit = np.asarray(target) - counts.sum(axis=1)
    # the deficit-th largest fraction: bump every bin above it, then the
    # leftmost bins equal to it
    ranked = np.sort(frac, axis=1)
    threshold = ranked[np.arange(n), width - np.clip(deficit, 1, width)]
    above = frac > threshold[:, None]
    ties = frac == threshold[:, None]
    left = deficit - above.sum(axis=1)
    bump = above | (ties & (np.cumsum(ties, axis=1, dtype=np.int16) <= left[:, None]))
    return counts + bump


# The codec snaps every slice sigma to one of SCALE_LEVELS log-spaced
# scales over [SIGMA_MIN, SIGMA_MAX]; their cdf rows (mu_frac = 0) are
# built once, here.
SCALE_LEVELS = 256
SCALE_TABLE = np.geomspace(SIGMA_MIN, SIGMA_MAX, SCALE_LEVELS)
SCALE_CDFS = build_cdf_batch(np.zeros(SCALE_LEVELS), SCALE_TABLE)
SCALE_TABLE.flags.writeable = False
SCALE_CDFS.flags.writeable = False
# the geometric midpoints between neighbouring scales
_SCALE_MIDPOINTS = np.sqrt(SCALE_TABLE[:-1] * SCALE_TABLE[1:])


def scale_index(sigma) -> np.ndarray:
    """Index of the SCALE_TABLE entry nearest sigma on a log scale, shaped
    like sigma: the k with midpoint[k-1] <= sigma < midpoint[k]."""
    sigma = np.asarray(sigma)
    _check_sigma(sigma)
    return np.searchsorted(_SCALE_MIDPOINTS, sigma, side="right")


class _Encoder:
    """32-bit low/range state with LZMA-style carry resolution."""

    def __init__(self):
        self.low = 0
        self.range = _MASK32
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def _shift_low(self):
        if self.low < 0xFF000000 or self.low > _MASK32:
            carry = self.low >> 32
            self.out.append((self.cache + carry) & 0xFF)
            for _ in range(self.cache_size - 1):
                self.out.append((0xFF + carry) & 0xFF)
            self.cache = (self.low >> 24) & 0xFF
            self.cache_size = 0
        self.cache_size += 1
        self.low = (self.low << 8) & _MASK32

    def encode(self, cum_lo: int, cum_hi: int):
        r = self.range >> 16
        self.low += r * cum_lo
        self.range = r * (cum_hi - cum_lo)
        while self.range < _TOP:
            self.range <<= 8
            self._shift_low()

    def flush(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


class _Decoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.range = _MASK32
        self.code = 0
        for _ in range(5):
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32

    def _next_byte(self) -> int:
        if self.pos >= len(self.data):
            raise DecodeError("bitstream exhausted (truncated stream)")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, cdfs, lo: int, hi: int) -> int:
        """Decode one symbol under the cdf row cdfs[lo:hi] of a flat
        sequence of ints; returns the symbol's index into that row."""
        r = self.range >> 16
        value = self.code // r
        if value >= PROB_TOTAL:
            value = PROB_TOTAL - 1
        pos = bisect_right(cdfs, value, lo, hi) - 1
        cum_lo = cdfs[pos]
        self.code -= r * cum_lo
        self.range = r * (cdfs[pos + 1] - cum_lo)
        while self.range < _TOP:
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32
            self.range <<= 8
        return pos - lo


def _row_index(cdfs: np.ndarray, index, n: int) -> np.ndarray:
    """The validated row of cdfs for each of n symbols."""
    if cdfs.ndim != 2 or cdfs.shape[1] < 2:
        raise CoderError(f"cdfs must be 2-d rows of at least 2 columns, got {cdfs.shape}")
    if index is None:
        if cdfs.shape[0] != n:
            raise CoderError(f"{n} symbols but {cdfs.shape[0]} cdfs")
        return np.arange(n)
    index = np.asarray(index)
    if index.shape != (n,) or (n and index.dtype.kind not in "iu"):
        raise CoderError(f"row index must be {n} integers, got {index.dtype} {index.shape}")
    if n and (index.min() < 0 or index.max() >= cdfs.shape[0]):
        raise CoderError(f"row index outside the {cdfs.shape[0]} cdf rows")
    return index


def encode_symbols(symbols: Sequence[int], cdfs: np.ndarray, index=None) -> bytes:
    """Encode symbols (values in [SYMBOL_MIN, SYMBOL_MAX]) under per-symbol cdfs.

    cdfs has shape [rows, ALPHABET_SIZE + 1].  Symbol i is coded under row
    index[i], or under row i when index is None.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    cdfs = np.asarray(cdfs, dtype=np.int64)
    rows = _row_index(cdfs, index, symbols.size)
    if symbols.size and (symbols.min() < SYMBOL_MIN or symbols.max() > SYMBOL_MAX):
        raise CoderError("symbol outside the coder alphabet; clamp before encoding")
    idx = symbols - SYMBOL_MIN
    enc = _Encoder()
    for cum_lo, cum_hi in zip(cdfs[rows, idx].tolist(), cdfs[rows, idx + 1].tolist()):
        enc.encode(cum_lo, cum_hi)
    return enc.flush()


def decode_symbols(data: bytes, cdfs: np.ndarray, index=None) -> np.ndarray:
    """Exact inverse of encode_symbols; cdfs and index must match the encoder's."""
    cdfs = np.asarray(cdfs, dtype=np.int64)
    n = np.size(index) if index is not None else cdfs.shape[0] if cdfs.ndim else 0
    rows = _row_index(cdfs, index, n)
    width = cdfs.shape[1]
    starts = (rows * width).tolist()
    if len(data) < 5:
        raise DecodeError(f"stream of {len(data)} bytes is shorter than the coder flush")
    dec = _Decoder(data)
    # a flat memoryview hands bisect Python ints without numpy scalar boxing
    flat = memoryview(np.ascontiguousarray(cdfs).reshape(-1))
    out = [dec.decode(flat, lo, lo + width) for lo in starts]
    return np.array(out, dtype=np.int64) + SYMBOL_MIN


def quantized_bits(symbols: Sequence[int], cdfs: np.ndarray) -> float:
    """Information content sum(-log2 count/PROB_TOTAL) of symbol i under
    cdf row i."""
    symbols = np.asarray(symbols, dtype=np.int64)
    cdfs = np.asarray(cdfs, dtype=np.int64)
    idx = symbols - SYMBOL_MIN
    rows = np.arange(symbols.size)
    counts = cdfs[rows, idx + 1] - cdfs[rows, idx]
    return float(np.sum(-np.log2(counts / PROB_TOTAL)))
