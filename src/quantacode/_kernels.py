"""Hot numeric kernels with selectable backends.

Three implementations coexist for each hot loop:

* a numba ``@njit`` kernel (default when numba is importable),
* a vectorized numpy fallback,
* a pure-Python big-integer reference, which is the semantic ground truth.

Set ``QUANTACODE_JIT=0`` to skip numba and run the numpy/pure path;
``python -m quantacode.bench`` times the backends against each other.

The fast paths operate on int64 and are only eligible when every
intermediate provably fits (see :func:`fits_int64`); otherwise callers are
routed to the exact big-integer path, so results are identical everywhere.
All paths implement the same min-max apportionment: floor t*p_i, round up
the largest remainders, force f_i = 1 where t*p_i < 1, and when the forced
ones exceed the available round-ups, shed units from floored symbols by
waterfilling the resulting errors.  The output minimizes
max_i |t*p_i - f_i| subject to sum f_i = t, f_i >= 1.
"""

from __future__ import annotations

import heapq
import os

import numpy as np

_MASK32 = 0xFFFFFFFF
_TOP24 = 1 << 24
_MAX_T = 1 << 24  # coder limit so range // t never reaches zero

_INT64_GUARD = 1 << 62


def _jit_enabled() -> bool:
    return os.environ.get("QUANTACODE_JIT", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


HAVE_NUMBA = False
if _jit_enabled():
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - environment without numba
        HAVE_NUMBA = False

if not HAVE_NUMBA:
    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


def backend() -> str:
    """Name of the active fast backend: 'numba' or 'numpy'."""
    return "numba" if HAVE_NUMBA else "numpy"


def fits_int64(nums, d: int, t_hi: int) -> bool:
    """True when the int64 kernels are safe for numerators `nums`, denom d, t <= t_hi."""
    if len(nums) > 64:
        return False
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


@njit(cache=True)
def _minmax_scan_nb(nums, d, t_lo, t_hi, out_a, out_f, want_f):  # pragma: no cover
    m = nums.shape[0]
    n = np.empty(m, np.int64)
    rem = np.empty(m, np.int64)
    f = np.empty(m, np.int64)
    idx = np.empty(m, np.int64)
    for row in range(t_hi - t_lo + 1):
        t = t_lo + row
        nsum = 0
        z = 0
        for i in range(m):
            v = t * nums[i]
            ni = v // d
            n[i] = ni
            rem[i] = v - ni * d
            nsum += ni
            if ni == 0:
                z += 1
        r = t - nsum
        if r >= z:
            # force the sub-unit symbols up, round up the largest big remainders
            nb = 0
            for i in range(m):
                if n[i] == 0:
                    f[i] = 1
                else:
                    idx[nb] = i
                    nb += 1
            # insertion sort of bigs by (-rem, index)
            for a_ in range(1, nb):
                key = idx[a_]
                b_ = a_ - 1
                while b_ >= 0 and (rem[idx[b_]] < rem[key]
                                   or (rem[idx[b_]] == rem[key] and idx[b_] > key)):
                    idx[b_ + 1] = idx[b_]
                    b_ -= 1
                idx[b_ + 1] = key
            k = r - z
            for j in range(nb):
                i = idx[j]
                f[i] = n[i] + (1 if j < k else 0)
        else:
            for i in range(m):
                f[i] = 1 if n[i] == 0 else n[i]
            shed = z - r
            while shed > 0:
                best = -1
                berr = 0
                for i in range(m):
                    if n[i] > 0 and f[i] > 1:
                        err = rem[i] + (n[i] - f[i]) * d
                        if best < 0 or err < berr:
                            best = i
                            berr = err
                f[best] -= 1
                shed -= 1
        a = 0
        for i in range(m):
            e = t * nums[i] - f[i] * d
            if e < 0:
                e = -e
            if e > a:
                a = e
            if want_f:
                out_f[row, i] = f[i]
        out_a[row] = a


def _minmax_scan_np(nums, d, t_lo, t_hi, want_f):
    """Vectorized largest-remainder over a t range; rows needing the forced
    or shedding branches are recomputed by the exact reference (rare)."""
    P = np.asarray(nums, dtype=np.int64)
    m = P.shape[0]
    T = np.arange(t_lo, t_hi + 1, dtype=np.int64)
    x = T[:, None] * P[None, :]
    n = x // d
    rem = x - n * d
    r = T - n.sum(axis=1)
    ordr = np.argsort(-rem, axis=1, kind="stable")
    rank = np.empty_like(ordr)
    np.put_along_axis(rank, ordr, np.arange(m, dtype=np.int64)[None, :], axis=1)
    f = n + (rank < r[:, None])
    bad = (f < 1).any(axis=1)
    if bad.any():
        for row in np.flatnonzero(bad):
            frow, _ = minmax_freqs_exact([int(v) for v in P], d, int(T[row]))
            f[row] = frow
    a = np.abs(x - f * d).max(axis=1)
    return (a, f) if want_f else (a, None)


def minmax_scan(nums, d: int, t_lo: int, t_hi: int, want_freqs: bool = False):
    """delta_star numerators A_t (and optionally freqs) for every t in [t_lo, t_hi].

    Returns (A, F): int64 arrays on the fast path.  Falls back to exact
    big-integer lists when int64 could overflow; A entries are then Python ints
    and F a list of tuples.
    """
    nums = [int(v) for v in nums]
    if fits_int64(nums, d, t_hi):
        size = t_hi - t_lo + 1
        if HAVE_NUMBA:
            out_a = np.empty(size, np.int64)
            out_f = np.empty((size, len(nums)) if want_freqs else (1, 1), np.int64)
            _minmax_scan_nb(np.asarray(nums, np.int64), d, t_lo, t_hi,
                            out_a, out_f, want_freqs)
            return out_a, (out_f if want_freqs else None)
        return _minmax_scan_np(nums, d, t_lo, t_hi, want_freqs)
    a_list, f_list = [], []
    for t in range(t_lo, t_hi + 1):
        f, a = minmax_freqs_exact(nums, d, t)
        a_list.append(a)
        if want_freqs:
            f_list.append(tuple(f))
    return a_list, (f_list if want_freqs else None)


# =============================================================================
# exhaustive composition search (test oracle)
# =============================================================================

def exhaustive_min_exact(nums, d: int, t: int):
    """Enumerate every composition of t into positive parts; first minimum wins.

    Pure recursive reference; exact for any operand size.
    """
    m = len(nums)
    x = [t * v for v in nums]
    best_a = None
    best_f = None
    f = [0] * m

    def rec(i, left, cur_max):
        nonlocal best_a, best_f
        if i == m - 1:
            f[i] = left
            e = x[i] - left * d
            if e < 0:
                e = -e
            a = e if e > cur_max else cur_max
            if best_a is None or a < best_a:
                best_a = a
                best_f = tuple(f)
            return
        for v in range(1, left - (m - i - 1) + 1):
            f[i] = v
            e = x[i] - v * d
            if e < 0:
                e = -e
            rec(i + 1, left - v, e if e > cur_max else cur_max)

    rec(0, t, 0)
    return best_f, best_a


@njit(cache=True)
def _exhaustive_nb(nums, d, t):  # pragma: no cover
    m = nums.shape[0]
    x = np.empty(m, np.int64)
    for i in range(m):
        x[i] = t * nums[i]
    best_a = np.int64(2) ** 62
    bf1 = bf2 = bf3 = np.int64(0)
    if m == 2:
        for f1 in range(1, t):
            e1 = x[0] - f1 * d
            if e1 < 0:
                e1 = -e1
            e2 = x[1] - (t - f1) * d
            if e2 < 0:
                e2 = -e2
            a = e1 if e1 > e2 else e2
            if a < best_a:
                best_a = a
                bf1 = f1
        return bf1, np.int64(0), np.int64(0), best_a
    if m == 3:
        for f1 in range(1, t - 1):
            e1 = x[0] - f1 * d
            if e1 < 0:
                e1 = -e1
            for f2 in range(1, t - f1):
                e2 = x[1] - f2 * d
                if e2 < 0:
                    e2 = -e2
                e3 = x[2] - (t - f1 - f2) * d
                if e3 < 0:
                    e3 = -e3
                a = e1
                if e2 > a:
                    a = e2
                if e3 > a:
                    a = e3
                if a < best_a:
                    best_a = a
                    bf1, bf2 = f1, f2
        return bf1, bf2, np.int64(0), best_a
    # m == 4
    for f1 in range(1, t - 2):
        e1 = x[0] - f1 * d
        if e1 < 0:
            e1 = -e1
        for f2 in range(1, t - f1 - 1):
            e2 = x[1] - f2 * d
            if e2 < 0:
                e2 = -e2
            e12 = e1 if e1 > e2 else e2
            for f3 in range(1, t - f1 - f2):
                e3 = x[2] - f3 * d
                if e3 < 0:
                    e3 = -e3
                e4 = x[3] - (t - f1 - f2 - f3) * d
                if e4 < 0:
                    e4 = -e4
                a = e12
                if e3 > a:
                    a = e3
                if e4 > a:
                    a = e4
                if a < best_a:
                    best_a = a
                    bf1, bf2, bf3 = f1, f2, f3
    return bf1, bf2, bf3, best_a


def _exhaustive_np(nums, d, t):
    m = len(nums)
    x = [t * v for v in nums]
    if m == 2:
        f1 = np.arange(1, t, dtype=np.int64)
        a = np.maximum(np.abs(x[0] - f1 * d), np.abs(x[1] - (t - f1) * d))
        j = int(np.argmin(a))
        return (int(f1[j]), t - int(f1[j])), int(a[j])
    if m == 3:
        f1 = np.arange(1, t - 1, dtype=np.int64)[:, None]
        f2 = np.arange(1, t - 1, dtype=np.int64)[None, :]
        f3 = t - f1 - f2
        a = np.maximum(np.abs(x[0] - f1 * d), np.abs(x[1] - f2 * d))
        a = np.maximum(a, np.abs(x[2] - f3 * d))
        a = np.where(f3 >= 1, a, np.int64(2) ** 62)
        j = int(np.argmin(a))
        i1, i2 = divmod(j, a.shape[1])
        out = (int(f1[i1, 0]), int(f2[0, i2]), t - int(f1[i1, 0]) - int(f2[0, i2]))
        return out, int(a[i1, i2])
    # m == 4: loop the outer coordinate, vectorize the inner grid
    best_a = None
    best_f = None
    for v1 in range(1, t - 2):
        e1 = abs(x[0] - v1 * d)
        rest = t - v1
        f2 = np.arange(1, rest - 1, dtype=np.int64)[:, None]
        f3 = np.arange(1, rest - 1, dtype=np.int64)[None, :]
        f4 = rest - f2 - f3
        a = np.maximum(np.abs(x[1] - f2 * d), np.abs(x[2] - f3 * d))
        a = np.maximum(a, np.abs(x[3] - f4 * d))
        a = np.maximum(a, e1)
        a = np.where(f4 >= 1, a, np.int64(2) ** 62)
        j = int(np.argmin(a))
        i2, i3 = divmod(j, a.shape[1])
        cand = int(a[i2, i3])
        if best_a is None or cand < best_a:
            best_a = cand
            best_f = (v1, int(f2[i2, 0]), int(f3[0, i3]),
                      rest - int(f2[i2, 0]) - int(f3[0, i3]))
    return best_f, best_a


def exhaustive_min(nums, d: int, t: int):
    """Minimum-A composition by full enumeration, ties to the lexicographically
    smallest f.  Dispatches by backend; falls back to the exact reference when
    int64 is unsafe or m not in {2, 3, 4}."""
    nums = [int(v) for v in nums]
    m = len(nums)
    if m in (2, 3, 4) and fits_int64(nums, d, t):
        if HAVE_NUMBA:
            bf1, bf2, bf3, a = _exhaustive_nb(np.asarray(nums, np.int64), d, t)
            bf1, bf2, bf3, a = int(bf1), int(bf2), int(bf3), int(a)
            if m == 2:
                return (bf1, t - bf1), a
            if m == 3:
                return (bf1, bf2, t - bf1 - bf2), a
            return (bf1, bf2, bf3, t - bf1 - bf2 - bf3), a
        return _exhaustive_np(nums, d, t)
    return exhaustive_min_exact(nums, d, t)


# =============================================================================
# range coder
# =============================================================================

def rc_encode_py(syms, pos, starts, fpos, t: int) -> bytes:
    """Byte-wise carry-propagating range coder, pure Python."""
    m = len(starts)
    low = 0
    rng = _MASK32
    cache = 0
    cache_size = 1
    out = bytearray()

    def shift_low():
        nonlocal low, cache, cache_size
        carry = low >> 32
        if (low & _MASK32) < 0xFF000000 or carry:
            out.append((cache + carry) & 0xFF)
            for _ in range(cache_size - 1):
                out.append((0xFF + carry) & 0xFF)
            cache = (low >> 24) & 0xFF
            cache_size = 0
        cache_size += 1
        low = (low & 0xFFFFFF) << 8

    for s in syms:
        k = pos[s]
        r = rng // t
        base = starts[k] * r
        low += base
        if k == m - 1:
            rng -= base
        else:
            rng = fpos[k] * r
        while rng < _TOP24:
            rng <<= 8
            shift_low()
    for _ in range(5):
        shift_low()
    return bytes(out)


class _OverRead(Exception):
    """The decoder needed more than 8 bytes past the end of its input."""


def rc_decode_py(data: bytes, n: int, order, starts, fpos, t: int):
    """Inverse of rc_encode_py; returns (symbols, over).

    `over` counts the zero bytes read past the end of `data`.  Decoding stops
    as soon as it reaches 9, where an honest stream never gets; the symbols
    not yet decoded are then left undefined.
    """
    m = len(starts)
    rng = _MASK32
    code = 0
    ptr = 0
    over = 0
    ln = len(data)
    syms = np.empty(n, dtype=np.int64)

    def read():
        nonlocal ptr, over
        if ptr < ln:
            b = data[ptr]
            ptr += 1
            return b
        over += 1
        if over > 8:
            raise _OverRead
        return 0

    for _ in range(5):
        code = ((code << 8) | read()) & _MASK32
    try:
        for i in range(n):
            r = rng // t
            dv = code // r
            if dv >= t:
                dv = t - 1
            lo, hi = 0, m - 1
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if starts[mid] <= dv:
                    lo = mid
                else:
                    hi = mid - 1
            base = starts[lo] * r
            code -= base
            if lo == m - 1:
                rng -= base
            else:
                rng = fpos[lo] * r
            while rng < _TOP24:
                code = ((code << 8) | read()) & _MASK32
                rng <<= 8
            syms[i] = order[lo]
    except _OverRead:
        pass
    return syms, over


@njit(cache=True)
def _rc_encode_nb(syms, pos, starts, fpos, t, out):  # pragma: no cover
    m = starts.shape[0]
    low = np.int64(0)
    rng = np.int64(_MASK32)
    cache = np.int64(0)
    cache_size = np.int64(1)
    cnt = 0
    cap = out.shape[0]
    for si in range(syms.shape[0]):
        k = pos[syms[si]]
        r = rng // t
        base = starts[k] * r
        low += base
        if k == m - 1:
            rng -= base
        else:
            rng = fpos[k] * r
        while rng < _TOP24:
            rng <<= 8
            carry = low >> 32
            if (low & _MASK32) < 0xFF000000 or carry != 0:
                if cnt + cache_size >= cap:
                    return -1
                out[cnt] = (cache + carry) & 0xFF
                cnt += 1
                for _ in range(cache_size - 1):
                    out[cnt] = (0xFF + carry) & 0xFF
                    cnt += 1
                cache = (low >> 24) & 0xFF
                cache_size = 0
            cache_size += 1
            low = (low & 0xFFFFFF) << 8
    for _ in range(5):
        carry = low >> 32
        if (low & _MASK32) < 0xFF000000 or carry != 0:
            if cnt + cache_size >= cap:
                return -1
            out[cnt] = (cache + carry) & 0xFF
            cnt += 1
            for _ in range(cache_size - 1):
                out[cnt] = (0xFF + carry) & 0xFF
                cnt += 1
            cache = (low >> 24) & 0xFF
            cache_size = 0
        cache_size += 1
        low = (low & 0xFFFFFF) << 8
    return cnt


@njit(cache=True)
def _rc_decode_nb(data, n, order, starts, fpos, t, syms):  # pragma: no cover
    m = starts.shape[0]
    rng = np.int64(_MASK32)
    code = np.int64(0)
    ptr = 0
    over = 0
    ln = data.shape[0]
    for _ in range(5):
        b = np.int64(0)
        if ptr < ln:
            b = np.int64(data[ptr])
            ptr += 1
        else:
            over += 1
        code = ((code << 8) | b) & _MASK32
    for i in range(n):
        r = rng // t
        dv = code // r
        if dv >= t:
            dv = t - 1
        lo = 0
        hi = m - 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if starts[mid] <= dv:
                lo = mid
            else:
                hi = mid - 1
        base = starts[lo] * r
        code -= base
        if lo == m - 1:
            rng -= base
        else:
            rng = fpos[lo] * r
        while rng < _TOP24:
            b = np.int64(0)
            if ptr < ln:
                b = np.int64(data[ptr])
                ptr += 1
            else:
                over += 1
                if over > 8:
                    return -1
            code = ((code << 8) | b) & _MASK32
            rng <<= 8
        syms[i] = order[lo]
    return over


def rc_encode(syms, pos, starts, fpos, t: int, width_bits: int) -> bytes:
    """Dispatching range-coder encode: symbols -> compressed bytes."""
    if HAVE_NUMBA:
        syms = np.ascontiguousarray(syms, dtype=np.int64)
        cap = 16 + 5 + ((width_bits + 2) * syms.shape[0] + 64) // 8
        out = np.empty(cap, dtype=np.uint8)
        cnt = _rc_encode_nb(syms, np.asarray(pos, np.int64),
                            np.asarray(starts, np.int64),
                            np.asarray(fpos, np.int64), t, out)
        if cnt < 0:  # pragma: no cover - capacity is a safe over-estimate
            raise RuntimeError("encoder output buffer overflow")
        return out[:cnt].tobytes()
    return rc_encode_py(syms, pos, starts, fpos, t)


def rc_decode(data: bytes, n: int, order, starts, fpos, t: int):
    """Dispatching range-coder decode; returns (symbols, overread_count|-1)."""
    if HAVE_NUMBA:
        arr = np.frombuffer(data, dtype=np.uint8)
        syms = np.empty(n, dtype=np.int64)
        over = _rc_decode_nb(arr, n, np.asarray(order, np.int64),
                             np.asarray(starts, np.int64),
                             np.asarray(fpos, np.int64), t, syms)
        return syms, int(over)
    syms, over = rc_decode_py(data, n, order, starts, fpos, t)
    return syms, (over if over <= 8 else -1)
