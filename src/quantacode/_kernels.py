"""Hot numeric kernels: one int64 fast path and one exact reference.

The min-max apportionment has two implementations:

* :func:`minmax_scan`, a vectorized numpy kernel on int64 over a range of
  t (:func:`_minmax_rows` over any array of t), for any alphabet size,
  where every intermediate provably fits (see :func:`fits_int64`);
* :func:`minmax_freqs_exact`, a pure-Python big-integer reference for one
  t and the semantic ground truth: it builds single tables, repairs the
  kernel's shedding rows, confirms scan candidates and is the test oracle,
  but never scans a range.

Both implement the same construction: floor t*p_i, round up the largest
remainders, force f_i = 1 where t*p_i < 1, and when the forced ones exceed
the available round-ups, shed units from floored symbols by waterfilling
the resulting errors.  The output minimizes max_i |t*p_i - f_i| subject to
sum f_i = t, f_i >= 1.  The int64 kernel handles forced rows in numpy too;
only shedding rows call the exact reference.  It can also certify its
tables for every source within a given distance of its input, which lets
a truncated stand-in for a source that overflows int64 give that source's
exact tables (see :func:`minmax_scan`).

:func:`gap_screen` keeps the t of an array at which every t*p_i lies
within one cap of an integer.  That distance bounds every table's
error from below, so `approx` drops the rows that cannot be records or
hits before the min-max kernel builds any table.

The int64 kernel works symbol-major: its arrays are (m, rows), so each
reduction over the symbols runs along axis 0, across whole rows of the
array, instead of along a short last axis.  The largest remainders are
picked without an argsort: key_i = rem_i*m + (m - 1 - i) is unique within
a row and orders the remainders with ties to the lower index, and
key < d*m < 2**62 under the int64 guard.  Up to _PAIRWISE_MAX_M = 8
symbols a key's rank comes from comparing every pair of keys; above that
from a sort of each row's keys, which is faster there.

The range coder runs on Python ints and C-level primitives (bisect,
bytearray appends).  The encoder adds each carry to the bytes it has
written (O(len) per stream, see :func:`_carry`); decoded symbols view the
decoder's own byte buffer.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right

import numpy as np

from .errors import InvalidArgument

_MASK32 = 0xFFFFFFFF
_TOP24 = 1 << 24
_CHUNK = 1 << 12        # symbols per slice of rc_encode and sample_symbols

_INT64_GUARD = 1 << 62
_PAIRWISE_MAX_M = 8   # _round_ups counts pairs up to here, sorts above
_BLOCK = 3 << 12       # entries per (m, rows) block of _minmax_rows


def backend() -> str:
    """Name of the fast backend; always 'numpy'."""
    return "numpy"


def fits_int64(nums, d: int, t_hi: int) -> bool:
    """True when the int64 kernels are safe for numerators `nums`, denom d, t <= t_hi."""
    return t_hi * d < _INT64_GUARD and max(nums) * t_hi < _INT64_GUARD


# =============================================================================
# min-max apportionment
# =============================================================================

def minmax_freqs_exact(nums, d: int, t: int):
    """Reference implementation on Python big integers.

    nums[i] = p_i * d (exact); returns (freqs, A) where A = max_i |t*p_i*d - f_i*d|
    so that delta_star = A / (d * t).
    """
    m = len(nums)
    x = [t * v for v in nums]
    n = [v // d for v in x]
    rem = [x[i] - n[i] * d for i in range(m)]
    r = t - sum(n)
    f = [0] * m
    smalls = [i for i in range(m) if n[i] == 0]
    if r >= len(smalls):
        for i in smalls:
            f[i] = 1
        bigs = sorted((i for i in range(m) if n[i] > 0),
                      key=lambda i: (-rem[i], i))
        k = r - len(smalls)
        for j, i in enumerate(bigs):
            f[i] = n[i] + (1 if j < k else 0)
    else:
        for i in smalls:
            f[i] = 1
        shed = len(smalls) - r
        heap = []
        for i in range(m):
            if n[i] > 0:
                f[i] = n[i]
                heapq.heappush(heap, (rem[i], i))
        while shed > 0:
            err, i = heapq.heappop(heap)
            if f[i] <= 1:
                continue
            f[i] -= 1
            shed -= 1
            heapq.heappush(heap, (err + d, i))
    a = 0
    for i in range(m):
        e = x[i] - f[i] * d
        if e < 0:
            e = -e
        if e > a:
            a = e
    return f, a


def _round_ups(key, k):
    """Bool (m, rows) mask of the k[j] largest keys of each column j.

    The keys of a column must be distinct.  Up to _PAIRWISE_MAX_M symbols
    each key's rank is counted from one broadcast comparison of every pair;
    above that each column is sorted and its keys compared with the
    (m - k)-th smallest, which selects nothing for k <= 0.
    """
    m, rows = key.shape
    if m <= _PAIRWISE_MAX_M:
        return (key[:, None] > key[None]).sum(axis=0, dtype=np.int8) < k
    ranked = np.empty((rows, m + 1), dtype=np.int64)   # row-major: a fast sort
    ranked[:, :m] = key.T
    ranked[:, :m].sort(axis=1)
    ranked[:, m] = np.iinfo(np.int64).max   # above every key
    return key >= ranked[np.arange(rows), np.minimum(m - k, m)]


def minmax_scan(nums, d: int, t_lo: int, t_hi: int, want_freqs: bool = False,
                slack: int | None = None):
    """delta_star numerators A_t (and optionally freqs) for every t in [t_lo, t_hi].

    Returns (A, F) as int64 arrays, F as (rows, m).  Raises InvalidArgument
    where :func:`fits_int64` fails; `approx` scans such a source on a
    truncated stand-in.  :func:`_minmax_rows` does the work, and takes
    any ascending array of t.

    x = t*P_i, its floors n and remainders rem are (m, rows) arrays, so
    every reduction over the symbols runs along axis 0.  Round-ups go to
    the r = t - sum_i n_i largest remainders, ties to the lower index, by
    one unique int64 key per entry, key_i = rem_i*m + (m - 1 - i) (see
    :func:`_round_ups`).  Rows where some t*p_i < 1 forces f_i = 1 are fixed
    the same way: the smalls take rem = -1, so key >= -m, and the k =
    r - #smalls round-ups left go to the largest remainders of the other
    symbols.  Only shedding rows (k < 0) call the exact reference, and only
    without `slack`.

    `slack` = g with 0 <= g <= d returns (None, F, sure) instead: the
    tables without A, and a bool array.  sure[j] certifies that row
    t = t_lo + j's table is, tie-breaks included, the min-max table at t of
    every source q whose scaled values t*q_i*d lie within g of t*nums_i.
    With rem_i = t*nums_i mod d, the smalls the i with t*nums_i < d and the
    bigs the others, a row is sure when
    (1) g <= rem_i < d - g for every i (q has the same floors and smalls),
    (2) it does not shed, and
    (3) every rounded-up big's remainder exceeds every floored big's by
        more than 2g (q rounds up the same bigs, whatever the tie-breaks);
    the `approx` module docstring gives the argument.  A row that is not
    sure is meant to be rebuilt from the true source, so a shedding row is
    left unrepaired there and its F is void.

    Premise: m <= t_lo, as in every scan, which starts at t = m.  Then
    key < d*m <= d*t_hi < 2**62 under the int64 guard, whatever m is.
    """
    nums = [int(v) for v in nums]
    if not fits_int64(nums, d, t_hi):
        raise InvalidArgument(f"int64 scan overflows at d = {d}, t = {t_hi}")
    assert len(nums) <= t_lo, (len(nums), t_lo)
    return _minmax_rows(nums, d, np.arange(t_lo, t_hi + 1, dtype=np.int64),
                        want_freqs, slack)


def _minmax_rows(nums, d: int, T, want_freqs: bool = False, slack: int | None = None):
    """:func:`minmax_scan` at the t of the ascending int64 array T, with
    m <= T[0] and every t*nums_i and t*d in int64 (unchecked).

    The rows are taken in blocks of _BLOCK // m, so that every (m, rows)
    array stays under glibc's 128 KiB mmap threshold: a larger one is
    mapped afresh and page-faulted on each call, which cost more than the
    arithmetic from m = 4 on.  An empty T gives empty arrays.
    """
    nums = [int(v) for v in nums]
    P = np.asarray(nums, dtype=np.int64)
    step = max(_BLOCK // P.shape[0], 1)
    parts = [_minmax_block(nums, P, d, T[i:i + step], slack)
             for i in range(0, max(len(T), 1), step)]   # one block when T is empty
    a, f, sure = zip(*parts)
    f = np.concatenate([b.T for b in f]) if want_freqs else None
    if slack is None:
        return np.concatenate(a), f
    return None, f, np.concatenate(sure)


def gap_screen(nums, d: int, T, cap: int):
    """The t of the int64 array T with every ||t*nums_i||_d <= cap, in order.

    ||x||_d = min(x mod d, d - x mod d) is the distance from x to the
    nearest multiple of d: for any integer f, |x - f*d| >= ||x||_d, so
    max_i ||t*nums_i||_d is a lower bound on every table's A at t.  cap is
    one integer for every row; each symbol's pass keeps only the rows still
    in, so the later passes run on the survivors.  Premise: every t*nums_i
    fits int64, as :func:`fits_int64` asserts.
    """
    for v in nums:
        r = T * int(v) % d
        T = T[np.minimum(r, d - r) <= cap]
    return T


def _minmax_block(nums, P, d, T, slack):
    """One block of :func:`_minmax_rows`: (A or None, F as (m, rows),
    sure or None)."""
    m = P.shape[0]
    tie = np.arange(m - 1, -1, -1, dtype=np.int64)[:, None]
    x = P[:, None] * T[None, :]
    n = x // d
    rem = x - n * d
    r = T - n.sum(axis=0)
    f = n + _round_ups(rem * m + tie, r)
    bad = np.flatnonzero((f == 0).any(axis=0))
    shed = bad[:0]
    if bad.size:
        n_b = n[:, bad]
        small = n_b == 0
        k = r[bad] - small.sum(axis=0)
        key = np.where(small, -1, rem[:, bad]) * m + tie
        f[:, bad] = n_b + small + _round_ups(key, k)
        shed = bad[k < 0]
        if slack is None:
            for row in shed.tolist():
                f[:, row], _ = minmax_freqs_exact(nums, d, int(T[row]))
    if slack is None:
        return np.abs(x - f * d).max(axis=0), f, None
    g = slack
    up = f > n
    # (3) the least rounded-up remainder among the bigs minus the largest
    # floored one; the sentinels pass a row where either side is empty
    cut = (np.where(up & (n > 0), rem, d + 2 * g).min(axis=0)
           - np.where(up, -2 * g - 1, rem).max(axis=0))
    # (1) g <= rem_i <= d - 1 - g for every i
    sure = (rem.min(axis=0) >= g) & (rem.max(axis=0) <= d - 1 - g) & (cut > 2 * g)
    sure[shed] = False      # (2): the other rows have k >= 0
    return None, f, sure


# =============================================================================
# range coder
# =============================================================================

def rc_encode(syms, freqs, starts, last, t: int) -> bytes:
    """Byte-wise range coder: symbols -> compressed bytes.

    Symbol s owns freqs[s] of t from starts[s] on; `last`, the symbol at the
    last canonical position, takes the rest of the range.  The loop reads
    Python ints from bounded tolist() slices of the array `syms`.  Output:
    the exact sum of each symbol's start*r << 8*(shifts after it), in 1 +
    shifts + 4 big-endian bytes.  Bit 32 of `low` (< 2**33) is a carry that
    the next shift, or the flush, adds to the bytes written.
    """
    low, rng = 0, _MASK32
    out = bytearray(1)   # byte 0 stays 0: the sum is < 2**(32 + 8*shifts)
    for i in range(0, syms.size, _CHUNK):
        for s in syms[i:i + _CHUNK].tolist():
            r = rng // t
            base = starts[s] * r
            low += base
            if s == last:
                rng -= base
            else:
                rng = freqs[s] * r
            while rng < _TOP24:
                rng <<= 8
                if low > _MASK32:
                    low = _carry(out, low)
                out.append(low >> 24)
                low = (low & 0xFFFFFF) << 8
    if low > _MASK32:
        low = _carry(out, low)
    out += low.to_bytes(4, "big")
    return bytes(out)


def _carry(out: bytearray, low: int) -> int:
    """Add bit 32 of `low` to `out` and return low's 32 bits: trailing 0xFF
    bytes become 0, the byte before them goes up by one.  A byte turns from
    0xFF to 0 at most once more than the carries that end at it, so all the
    carries of a stream walk fewer than 2*len(out) bytes."""
    i = len(out) - 1
    while out[i] == 0xFF:
        out[i] = 0
        i -= 1
    out[i] += 1
    return low & _MASK32


def rc_decode_py(data: bytes, n: int, order, starts, fpos, t: int):
    """Inverse of rc_encode; returns (symbols, over).

    A symbol's canonical position is bisect_right(starts, code // r) - 1; a
    quotient >= t (a damaged stream) lands in the last interval.  `data` is
    read with 8 zero bytes appended, and `over` counts the bytes read past
    its end: 0 for an honest stream, which reads 5 preamble bytes and one
    per renormalisation shift.  A 9th read past the end stops decoding with
    over = 9, the symbols not yet decoded left undefined.  The symbols go
    into a bytearray of n (C unsigned ints when m > 256), one allocation
    that the result views without a copy: uint8 for m <= 256, else uint32.
    """
    last = len(starts) - 1
    starts = list(starts)   # bisect is faster on a list
    src = b"".join((data, bytes(8)))   # one copy, of bytes or a view
    code = int.from_bytes(src[1:5], "big")   # byte 0 leaves the 32-bit code
    ptr = 5
    rng = _MASK32
    ks = bytearray(n) if last < 256 else array("I", [0]) * n
    try:
        for i in range(n):
            r = rng // t
            k = bisect_right(starts, code // r) - 1
            base = starts[k] * r
            code -= base
            if k == last:
                rng -= base
            else:
                rng = fpos[k] * r
            while rng < _TOP24:
                code = ((code << 8) | src[ptr]) & _MASK32
                ptr += 1
                rng <<= 8
            ks[i] = order[k]
        over = max(ptr - len(data), 0)
    except IndexError:
        over = 9
    return np.frombuffer(ks, np.uint8 if last < 256 else np.uint32), over


def rc_decode(data: bytes, n: int, order, starts, fpos, t: int):
    """:func:`rc_decode_py`, kept as the benchmark's decode span hook until
    the benchmark hooks a single name."""
    return rc_decode_py(data, n, order, starts, fpos, t)
