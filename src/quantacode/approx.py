"""Rational approximation constructions.

Two ways to approximate a source by f/t tables:

* :func:`round_min_max` -- for a fixed denominator t, the table minimizing
  the worst per-symbol error delta_star, by sum-constrained largest-remainder
  rounding (with exact repair when some t*p_i < 1 forces f_i = 1).
* :func:`record_scan` -- sweep t upward and keep the denominators whose
  delta_star beats everything smaller ("record" denominators).  Their
  normalized quality (t^2 * delta_star for binary sources, t^(1+1/m) *
  delta_star otherwise) is what the Diophantine existence results constrain,
  so the scan doubles as a desk-scale empirical check of those results.

A binary source needs no sweep: its records and hits come from the
continued fraction of x = p_min = P/d <= 1/2 (_binary_fold).  Let
x = [0; a_1, a_2, ...] have convergents p_k/q_k (q_0 = 1, q_1 = a_1, as
cf_convergents lists them) and theta_k = q_k*x - p_k.  The theta_k
alternate in sign, with theta_{k-1} = -alpha_{k+1} * theta_k for the
complete quotient alpha_{k+1} >= a_{k+1}, equal only at the last term of a
rational x.  The best table of t has f_min >= 1 and delta_star =
|x - f_min/t|, so:

* Forced prefix.  Where t*x < 1, f_min = 1 and delta_star = 1/t - x, which
  falls with t: every t in [2, t0], t0 = ceil(1/x) - 1, is a record, with
  A = d - t*P.
* Records beyond it.  At t*x >= 1, delta_star(t) = ||t*x||/t <= 1/(2t) < x,
  while ||s*x||/s = min(x, 1/s - x) for s <= t0.  So a record t > t0,
  which beats 1/s - x for s in [2, t0], beats ||s*x||/s for every s < t,
  s = 1 included: f_min/t is a best approximation of the first kind.
  Such a fraction lies on the Stern-Brocot path of x, i.e. t is a
  convergent denominator q_k or an intermediate one, q_{k-1} + j*q_k with
  0 < j < a_{k+1} (Khinchin, Continued Fractions, ch. II): a fraction off
  the path lies strictly inside one half of some mediant split whose other
  half holds x, so the mediant, of smaller denominator, lies between it
  and x.  The
  intermediate has |t*x - (p_{k-1} + j*p_k)| = (alpha_{k+1} - j)*|theta_k|,
  below |theta_{k-1}| <= 1/q_k <= 1/2, so that numerator is its nearest
  integer.  Its delta_star is below q_k's |theta_k|/q_k only when
  (alpha_{k+1} - j)*q_k < q_{k-1} + j*q_k, i.e. 2j > alpha_{k+1} -
  q_{k-1}/q_k > a_{k+1} - 1: the half rule j >= a_{k+1}/2.  Along j the
  intermediate's delta_star falls, so the records among one convergent's
  intermediates are a suffix of them, found by bisection.  Every candidate
  is decided by the cross-multiplication below against the best so far, in
  ascending t; the best so far is always a record, so the candidates give
  the same records as a sweep of every t.
* Hits.  A hit has |x - f_min/t| < kappa/t**2 < 1/(2t**2), since kappa**2
  < 1/4 (Kappa refuses more), so by Legendre's theorem f_min/t =
  c/q in lowest terms is a convergent, with c >= 1, and t = K*q.  There
  t*||t*x|| = K**2 * q*|theta|, with theta = q*x - c, while K*|theta| <
  1/2; so a hit at K*q makes every smaller multiple of q a hit, and each
  q's multiples are tested until the first miss.  A hit has A > 0, so
  t*||t*x|| >= t/d', d' the reduced denominator of x: every hit lies below
  the exact table at t = d'.

All record and threshold decisions are exact: with p_i = P_i / d and
A = max_i |t*P_i - f_i*d|, delta_star = A/(d*t), a record is decided by the
cross-multiplication A*t' < A'*t, a binary hit t**2 * delta_star < kappa by
(t*A)**2 * kappa**2 denominator < kappa**2 numerator * d**2, and an m-ary
one t^(1+1/m)*delta_star < m/(m+1) by t * A**m * (m+1)**m < m**m * d**m,
all in Python integers.  The m-ary test has an exact integer cap: it holds
exactly when 0 <= A <= B(t), B(t) the floor m-th root of
(m**m * d**m - 1) // (t * (m+1)**m).  B is non-increasing in t, so a
candidate with 0 < A <= B(t_last), t_last the last candidate of its
chunk, is a hit with no test of its own: one B per chunk decides almost
every row for large m, where almost every row is a hit.  Only the
candidates above that cap take the A**m test; this holds on a chunk of
any length, and a longer one only sends more rows to that test.

Every scan takes t in consecutive chunks [lo, hi]: the first has `first`
rows and each next one twice as many, up to _MAX_CHUNK = 16,384 for a
chunk whose every row is built (_spans), whose int64 array of t
(128 KiB) stays at glibc's mmap threshold, as _kernels._BLOCK does.  The
fold below, `scan_rows` and `best_table_under_width` start at first =
4,096 rows: the fold confirms nothing in its first chunk, so it builds
all of that chunk's tables at any length, and after it each chunk pays a
fixed cost (Python work, about 30 numpy calls, the gap cap and the gap
screen's window) that longer chunks pay less often.  A chunk that the
fold screens (below) builds no array of its own length, only of its
survivors, so after a screened chunk whose first symbol kept at most
_MAX_CHUNK // 2 rows the next one keeps doubling past _MAX_CHUNK: every
int64 array still holds about _MAX_CHUNK entries or fewer, and a
2*10**5 record scan of a 6-digit m = 3 source takes 6 chunks instead of
14.  A chunk that the fold takes whole is cut back to _MAX_CHUNK rows.
`scan_rows` builds every row anyway, so its fold screens nothing and
takes the chunks of _spans.  The planner's divergence search
(bounds._first_qualifying_t) stops at its first success, often at a
small t, so it starts at 256 rows.  A chunk only groups the rows
screened together; every rule below holds on any chunk, with D and g
taken from that chunk's own hi, so no output depends on the chunk
lengths.

`record_scan`, `best_table_under_width` and `scan_rows` take every record
and hit from one place per alphabet kind: _binary_fold for m = 2, the
chunked fold _fold for m > 2.  The fold needs only records and hits, so a
float64 prescreen *excludes* rows, and every remaining candidate is decided
by the integer tests above on the true p, in ascending t: no result rests
on a float or on a truncated source.  (A gap screen, below, first drops
most rows before any table is built.)  The int64 kernel scans each chunk
[lo, hi] on a source P/D with an integer slack g: on p itself (D = d,
g = 0) where the chunk fits int64, else on its truncation P~/D, with
D = (2**62 - 1) // hi, P~ the min-max table of p at t = D (sum P~ = D,
and every intermediate fits int64), a that table's A and g =
ceil(hi*a/d).  Such a chunk has D < d, so P~/D != p, a > 0 and g >= 1.

Truncation lemma.  For t <= hi, |t*D*P_i - t*P~_i*d| <= t*a <= d*g: each
t*D*p_i lies within g of t*P~_i.  So a table of t whose A is A on p and
A~ on P~/D has |d*A~ - D*A| <= t*a, and putting each source's min-max
table on the other gives the same for their own A and A~:
A~ - g <= D*A/d <= A~ + g.  As delta_star < 1, a < D*d and A~ < D*t, so
g <= hi*D < 2**62 and A~ + g fits int64; once D*p_min >= 1, a/d =
D*delta_star(p, D) < 1 and g <= hi.  The lemma has three uses: the
prescreen, the gap cap's + g and the certificate of P~'s tables.

The prescreen divides the lemma by D*t: delta_star_t lies between
q_low = (A~ - g)/(D*t) and q_high = (A~ + g)/(D*t), and t*delta_star_t is
at least x = max(A~ - g, 0)/D.  A row t is a record candidate when q_low
is at most both the confirmed best delta_star and the q_high of every
earlier row of its chunk, and a fact-constant candidate when
t * x**m < (m/(m+1))**m; in exact arithmetic every record and every hit
is one.  The record bound is widened by a relative 1e-9, the hit bound
by m * 1e-9, which covers the float64 rounding: A~ - g and A~ + g are
exact integers, so q_low, q_high, x and the best delta_star carry a few
units of 2**-53, and t * x**m, whose m-th power multiplies the error of
its base by m, about 2m + 4: under 2e-15 * m.  q_low is 0 or at least
about 2**-62 in size, so while the best delta_star is smaller (its float
even 0), a record has q_low <= 0 and stays a candidate; so does a row
whose x**m underflows.  An exact table has A~ <= g, so it is always a
record candidate, and once confirmed it ends the scan.  The screen pays
while g/(D*t), under hi**2 * 2**-62 / t, is far below the records'
delta_star, i.e. while t**(2 + 1/m) is far below 2**62 (t well below
10**8 for m = 3); beyond that more rows, up to every row, are candidates.

Before the kernel builds any table, the fold drops most rows by a cheaper
lower bound (_kernels.gap_screen).  Write ||x||_D for the distance from x
to the nearest multiple of D.  For any integers f_i, |t*P_i - f_i*d| >=
||t*P_i||_d, so the gap max_i ||t*P_i||_d is at most the A of every table
at t: gap/d <= t*delta_star(p, t), Dirichlet's simultaneous-approximation
quantity max_i ||t*p_i|| (Cassels, An Introduction to Diophantine
Approximation, 1957).  A truncated chunk screens P~/D: by the lemma each
t*P~_i lies within t*a/d <= g of t*D*p_i, and ||x||_D is 1-Lipschitz in
x, so its gap is at most (D*A + t*a)/d; an integer, so at most
D*A // d + g, as floor(x + y) <= floor(x) + ceil(y).  After a
confirmed best record (best_a, best_t), a record t in a chunk [lo, hi]
has A < t*best_a/best_t <= hi*best_a/best_t, and a hit has
A <= B(t) <= B(lo).  So the chunk's cap (_gap_cap), exact in integers, is
the larger of D*hi*best_a // (d*best_t) and D*B(lo) // d (the record part
alone when the scan wants no hits), plus g: on a chunk that fits int64
(D = d, g = 0), the larger of hi*best_a // best_t and B(lo).
gap_screen keeps the rows whose gap is at most that cap, symbol by symbol
on the rows still in; only those reach the kernel and the prescreen
above.  Every record and every hit is kept, and the kept rows are decided
as before: a record beats every earlier row, and the best of those is
itself a record, so the survivors' running best is the scan's.  The
output is that of the full scan.

The first symbol's survivors come from _kernels.gap_window, which
strides the chunk along a convergent denominator of P_1/D and costs
O(sqrt(rows) + survivors); each other symbol's pass runs on the rows
still in.  A pass keeps about (2*cap + 1)/D of the rows it sees, so all m
passes together keep about s = min(1, (2*cap + 1)/D)**m of the chunk:
the expected survivor share.  The screen then costs the window, the
passes and the kernel on a share s of the rows, against the kernel on
every row.  Measured on 16,384-row chunks for m = 3 to 24, that is
0.4-0.75 times the kernel's cost at s = 0.2 to 0.35 and 0.8-1.1 times at
s = 0.5 to 0.65, and the rest of the fold's work also falls with the
rows kept, so the fold screens where s < _SCREEN_SHARE = 1/2.
Every row is still taken:

* in the first chunk, where nothing is confirmed yet;
* in a chunk whose s reaches 1/2.  With hits, the cap is at least
  D*B(lo)/d, about D*(m/(m+1)) * lo**(-1/m), so s is at least about
  (2m/(m+1))**m / lo: the scans with hits take every row up to lo of
  about 6 * 10**3 for m = 13 and 1.3 * 10**7 for m = 24.

An m > 2 `scan_rows` prints every row's exact A, the planner's divergence
search needs every row's exact table of p (both from _Chunk's kernel
passes), and the fold its candidates' exact A.  So a truncated chunk
passes p and g to the kernel with P~/D (_Chunk.exact): by the lemma each
scaled value t*D*p_i lies within g of t*P~_i, and the kernel returns p's
own tables, certified on P~'s row by row and rebuilt by
minmax_freqs_exact on p where its certificate fails (the three conditions
and why they suffice: _kernels.minmax_scan).  g/D is about
hi**2 * 2**-62 (about 2**-14 at hi = 2**24, for a chunk of any length),
so such rows are rare while hi**2 is far below 2**62.  `scan_rows` for
every row, and the fold for its candidates, then take the exact
A = max_i |t*P_i - F_i*d| from the table in Python integers.  So the
int64 kernel scans every chunk, for any m; minmax_freqs_exact only builds
single tables and rebuilds the rows the certificate leaves.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import _kernels
from .errors import (
    DenominatorTooSmall,
    InstanceTooLarge,
    InvalidArgument,
    WidthTooSmall,
)
from .precision import DEFAULT_DPS, _iroot_floor
from .prob_model import MAX_TOTAL, FrequencyTable, ProbabilityVector, register_width

_FIRST_CHUNK = 4096    # first chunk of the fold, scan_rows and best_table_under_width
_MAX_CHUNK = 1 << 14   # 16,384 int64 rows, 128 KiB: glibc's mmap threshold
_SCREEN_SHARE = 0.5    # the fold screens a chunk expected to keep less than this share
_SLACK = 1e-9  # relative widening of every float64 prescreen bound
_INT64_TOP = (1 << 62) - 1  # hi * D on a truncated chunk stays at most this
_MAX_BITS = register_width(MAX_TOTAL)   # 24, the widest table the coder takes


def round_min_max(p: ProbabilityVector, t: int) -> FrequencyTable:
    """The table with denominator t minimizing delta_star, deterministically.

    Floors every t*p_i, rounds up the largest fractional parts until the sum
    is t, forces f_i = 1 wherever t*p_i < 1, and if those forced units exceed
    the available round-ups, sheds the excess from floored symbols in the
    order that grows the maximum error least.  The result is optimal for
    every (p, t); whenever a table with all |t*p_i - f_i| < 1 is feasible
    (always true once t*p_min >= 1), the output satisfies delta_star < 1/t.
    """
    if t < p.m:
        raise DenominatorTooSmall(f"t = {t} < m = {p.m}")
    f, _ = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator, t)
    return FrequencyTable.from_freqs(p, f)


# ---- continued fractions ----------------------------------------------------

def cf_convergents(x: Fraction, max_q: int):
    """Convergents (a, q) of x in (0, 1) with q <= max_q, denominators increasing.

    Each returned a/q is the best rational approximation of x among all
    denominators <= q (so |x - a/q| < 1/q**2).  When the expansion starts
    [0; 1, ...] the zeroth convergent 0/1 is superseded by 1/1 and dropped.
    """
    if not 0 < x < 1:
        raise InvalidArgument(f"x must lie in (0, 1), got {x}")
    if max_q < 1:
        raise InvalidArgument(f"max_q must be >= 1, got {max_q}")
    h_prev, h = 0, 1  # numerators h_-2, h_-1
    k_prev, k = 1, 0  # denominators k_-2, k_-1
    num, den = x.numerator, x.denominator
    out = []
    while den:   # Euclid's algorithm gives the terms a of x = [a0; a1, ...]
        a, (num, den) = num // den, (den, num % den)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if k > max_q:
            break
        if out and out[-1][1] == k:
            out[-1] = (h, k)  # a1 = 1 repeats q = 1; keep the better one
        else:
            out.append((h, k))
    return out


# ---- record scans -----------------------------------------------------------

@dataclass(frozen=True)
class Kappa:
    """Binary approximation constant; square is exact (1/5 or 1/8)."""

    label: str
    square: Fraction

    def __post_init__(self):
        # the binary record scan finds every hit by Legendre's theorem,
        # which needs t**2 * delta_star < 1/2
        if not 0 < self.square < Fraction(1, 4):
            raise InvalidArgument(f"kappa**2 = {self.square} must lie in (0, 1/4)")

    def value(self) -> mp.mpf:
        with mp.workdps(DEFAULT_DPS):
            return mp.sqrt(mp.mpf(self.square.numerator) / self.square.denominator)


KAPPA_GOLDEN = Kappa("golden", Fraction(1, 5))
KAPPA_GENERIC = Kappa("generic", Fraction(1, 8))


@dataclass(frozen=True)
class RecordEntry:
    """A record denominator: strictly smaller delta_star than every smaller t."""

    t: int
    freqs: tuple[int, ...]
    delta_star: Fraction

    @cached_property
    def quality(self):
        """t**2 * delta_star (exact Fraction) for m = 2 or delta_star = 0,
        else t**(1 + 1/m) * delta_star at DEFAULT_DPS digits; evaluated on
        first use, since no scan needs it."""
        m, x = len(self.freqs), self.t * self.delta_star
        if m == 2 or x == 0:
            return self.t * x
        with mp.workdps(DEFAULT_DPS):
            return (mp.mpf(self.t) ** (mp.mpf(1) / m)
                    * mp.mpf(x.numerator) / x.denominator)


class _Records(Sequence):
    """A scan's record entries, read-only: the entries of `forced`, a range
    of t built one at a time by `entry(t)` as they are read, then those of
    the list `rest`.  It compares equal to any sequence of equal entries;
    a slice is a list."""

    def __init__(self, rest, forced=range(0), entry=None):
        self._rest, self._forced, self._entry = rest, forced, entry

    def __len__(self):
        return len(self._forced) + len(self._rest)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = range(len(self))[i]
        n = len(self._forced)
        return self._entry(self._forced[k]) if k < n else self._rest[k - n]

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self):
        return repr(list(self))


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a record scan up to t_max."""

    records: Sequence      # RecordEntry in ascending t, read-only (_Records)
    fact_hits: list        # every scanned t whose quality beats the fact constant

    @property
    def record_ts(self):
        return [r.t for r in self.records]


def _spans(lo: int, t_max: int, first: int):
    """Consecutive spans (lo, hi) covering [lo, t_max] exactly: the first
    has `first` rows, and each next one twice as many as the one before,
    up to _MAX_CHUNK (the last is cut at t_max)."""
    size = first
    while lo <= t_max:
        hi = min(lo + size - 1, t_max)
        yield lo, hi
        lo, size = hi + 1, min(2 * size, _MAX_CHUNK)


class _Chunk:
    """The chunk [lo, hi] of a scan, which the int64 kernel scans on the
    source P/D (big_p/den) with integer slack g (module docstring): P =
    p's numerators, D = d and g = 0 on a chunk that fits int64, else p's
    truncation P~/D at D = (2**62 - 1) // hi and g = ceil(hi*a/d), a the
    truncation's A, so that every row has |d*A~ - D*A| <= d*g.  `exact`
    is the kernel's (p's numerators, d, g) on a truncated chunk, else None.

    Each whole-chunk array is built once, on first use: ts, the int64
    array of the chunk's t, and its kernel passes a_tilde, A~ of every row
    on P/D (p's own A where g = 0), and tables, p's min-max table of every
    row as an int64 (rows, m) array.  A chunk that the fold screens builds
    none of them.
    """

    def __init__(self, p: ProbabilityVector, lo: int, hi: int):
        nums, d = p.numerators, p.common_denominator
        self.lo, self.hi = lo, hi
        if _kernels.fits_int64(nums, d, hi):
            self.big_p, self.den, self.g, self.exact = nums, d, 0, None
        else:
            self.den = _INT64_TOP // hi
            self.big_p, a = _kernels.minmax_freqs_exact(nums, d, self.den)
            self.g = -(-hi * a // d)
            self.exact = nums, d, self.g

    @cached_property
    def ts(self):
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)

    @cached_property
    def a_tilde(self):
        return _kernels.minmax_scan(self.big_p, self.den, self.lo, self.hi)[0]

    @cached_property
    def tables(self):
        return _kernels.minmax_scan(self.big_p, self.den, self.lo, self.hi, True,
                                    self.exact)[1]


def _chunks(p: ProbabilityVector, t_max: int, first: int = _FIRST_CHUNK):
    """A _Chunk for each span of _spans(m, t_max, first)."""
    for lo, hi in _spans(p.m, t_max, first):
        yield _Chunk(p, lo, hi)


def _true_a(p: ProbabilityVector, ts, rows: list) -> list:
    """A = max_i |t*P_i - f_i*d| of p's tables `rows` (lists) at the t in
    ts, in Python integers."""
    nums, d = p.numerators, p.common_denominator
    return [max(abs(t * v - x * d) for v, x in zip(nums, row))
            for t, row in zip(ts.tolist(), rows)]


def _threshold_tests(m: int, d: int):
    """Exact, cap and float64 forms of "quality beats m/(m+1)", for m > 2.

    exact(t, a) decides t**(1+1/m) * delta_star < m/(m+1) by the integer
    cross-multiplication t * a**m * (m+1)**m < m**m * d**m, with the
    per-scan constants computed here, once.  cap(t) is the largest integer
    a that passes at t, so for a >= 0, exact(t, a) holds exactly when
    a <= cap(t): a**m <= (m**m * d**m - 1) // (t * (m+1)**m), i.e. a is
    at most the floor m-th root of the right side, non-increasing in t.
    screen(t, x), on an int64 array of t and a float64 array of
    x <= t * delta_star (A/d on a chunk that fits int64), is the same
    inequality widened by a relative m * _SLACK (see the module
    docstring): it is true wherever exact(t, a) is.
    """
    lhs_c, rhs = (m + 1) ** m, m**m * d**m
    bound = float(Fraction(m, m + 1) ** m) * (1 + m * _SLACK)
    return (lambda t, a: t * a**m * lhs_c < rhs,
            lambda t: _iroot_floor((rhs - 1) // (t * lhs_c), m),
            lambda t, x: t * x**m < bound)


def _hit_ts(lo: int, js, a, exact, cap) -> list:
    """The t = lo + j of the candidate rows j (ascending int64 array) whose
    true A, a[k] for js[k], passes `exact`; a is an int64 array, or a list
    of Python ints (a truncated chunk's), which a plain loop reads faster
    than numpy would.

    cap is non-increasing in t, so a row with 0 < a <= cap(t_last), t_last
    the last candidate's t, passes at its own t <= t_last without a test;
    only the rows above that cap take the exact one.
    """
    if not len(js):
        return []
    c = cap(lo + int(js[-1]))
    if isinstance(a, list):
        return [lo + j for j, v in zip(js.tolist(), a)
                if 0 < v and (v <= c or exact(lo + j, v))]
    c = min(c, _INT64_TOP)     # the int64 comparison must not overflow
    ok = (a > 0) & (a <= c)
    for k in np.flatnonzero(a > c).tolist():
        ok[k] = exact(lo + int(js[k]), int(a[k]))
    return (js[ok] + lo).tolist()


def _gap_cap(chunk: _Chunk, d: int, best_a: int, best_t: int, hit_cap) -> int:
    """The largest gap max_i ||t*P_i||_D of a record or, with hit_cap
    (_threshold_tests' cap), a hit in the chunk after the best record
    (best_a, best_t), exact in integers (see the module docstring)."""
    cap = chunk.den * chunk.hi * best_a // (d * best_t)
    if hit_cap is not None:
        cap = max(cap, chunk.den * hit_cap(chunk.lo) // d)
    return cap + chunk.g


def _fold(p: ProbabilityVector, t_max: int, hits: bool = True, whole: bool = False):
    """The record/threshold fold of an m > 2 source, chunk by chunk (see
    the module docstring): the first chunk has 4,096 rows and each next
    one twice as many, up to _MAX_CHUNK rows unless the chunk before was
    screened and its first symbol kept at most _MAX_CHUNK // 2 rows.  With
    `whole` every chunk takes every row, and the chunks are those of
    _spans: scan_rows reads each row's A from them.

    Yields (chunk, recs, hit_ts) per _Chunk: recs lists the (t, A, f) of its
    record denominators and hit_ts its fact-constant hits (empty unless
    `hits`), both in ascending t, with the true A of p; f is p's table at t
    where the fold built it (truncated chunks), else None.  The scan stops
    at the first exact table (A = 0), the final record.

    Each chunk after the first whose expected survivor share
    min(1, (2*cap + 1)/D)**m is below _SCREEN_SHARE keeps only the rows
    that gap_screen passes; a chunk taken whole is first cut back to
    _MAX_CHUNK rows.  The kernel then gives the kept rows' A~; a float64
    prescreen, widened by the chunk's slack g, excludes the rows that
    cannot be records or hits, and only the remaining candidates are
    decided exactly (on truncated chunks on their true A, from the
    tables of p that the kernel returns).  Hits are decided by _hit_ts.
    """
    m, d = p.m, p.common_denominator
    hit_cap = None
    if hits:
        exact_hit, hit_cap, screen_hit = _threshold_tests(m, d)
    best_a = best_t = None
    lo, size = m, _FIRST_CHUNK
    while lo <= t_max:
        chunk = _Chunk(p, lo, min(lo + size - 1, t_max))
        den, g = chunk.den, chunk.g
        screen = False      # nothing confirmed yet: the chunk takes every row
        if best_a is not None and not whole:
            cap = _gap_cap(chunk, d, best_a, best_t, hit_cap)
            screen = min((2 * cap + 1) / den, 1.0) ** m < _SCREEN_SHARE
        if not screen and size > _MAX_CHUNK:
            size = _MAX_CHUNK       # a chunk taken whole has at most _MAX_CHUNK rows
            continue
        if screen:
            ts, first = _kernels.gap_screen(chunk.big_p, den, lo, chunk.hi, cap)
            a_rows = _kernels._minmax_rows(chunk.big_p, den, ts)[0]   # A~
        else:
            ts, a_rows = chunk.ts, chunk.a_tilde
        # t * delta_star lies between (A~ - g)/D and (A~ + g)/D (the lemma)
        x_low = (a_rows - g) / den
        q_low = x_low / ts
        q_high = (a_rows + g) / den / ts if g else q_low
        best_q = math.inf if best_a is None else best_a / (d * best_t)
        prev = np.minimum.accumulate(np.concatenate(([best_q], q_high[:-1])))
        rec_j = np.flatnonzero(q_low <= prev * (1 + _SLACK))
        hit_j = rec_j[:0]
        if hits:
            with np.errstate(over="ignore", under="ignore"):
                hit_j = np.flatnonzero(screen_hit(ts, np.maximum(x_low, 0.0)))
        tables = {}     # j: p's table at t = ts[j], where the fold built it
        if g:     # decide each candidate on the true p
            cand = np.union1d(rec_j, hit_j).tolist()
            t_cand = ts[cand]
            rows = _kernels._minmax_rows(chunk.big_p, den, t_cand, True,
                                         chunk.exact)[1].tolist()
            tables = dict(zip(cand, rows))
            true_a = dict(zip(cand, _true_a(p, t_cand, rows)))
            rec_cand = [(j, true_a[j]) for j in rec_j.tolist()]
            hit_a = [true_a[j] for j in hit_j.tolist()]
        else:
            rec_cand = zip(rec_j.tolist(), a_rows[rec_j].tolist())
            hit_a = a_rows[hit_j]
        recs, end = [], len(ts)
        for j, a in rec_cand:
            t = int(ts[j])
            if best_a is None or a * best_t < best_a * t:
                best_a, best_t = a, t
                recs.append((t, a, tables.get(j)))
                if a == 0:
                    end = j + 1
                    break
        hit_ts = []
        if hits and hit_j.size:
            k = int(np.searchsorted(hit_j, end))    # the rows before `end`
            hit_ts = _hit_ts(lo, ts[hit_j[:k]] - lo, hit_a[:k], exact_hit, hit_cap)
        del x_low, q_low, q_high, prev     # hold no row-sized floats across the yield
        yield chunk, recs, hit_ts
        if best_a == 0:
            return
        grow = screen and first <= _MAX_CHUNK // 2
        lo, size = chunk.hi + 1, 2 * size if grow else min(2 * size, _MAX_CHUNK)


def _binary_a(big_p: int, d: int, t: int) -> int:
    """A at t of the binary source with p_min = big_p/d: f_min = 1 where
    t*p_min < 1, else the nearest integer to t*p_min (module docstring)."""
    r = t * big_p
    return d - r if r < d else min(r % d, d - r % d)


def _binary_fold(p: ProbabilityVector, t_max: int, kappa: Kappa = KAPPA_GENERIC,
                 hits: bool = True):
    """(runs, hit_ts) of a binary source up to t_max, from the continued
    fraction of x = p_min = P/d (see the module docstring).

    runs are ranges of record denominators, in ascending t: the forced
    prefix range(2, t0 + 1), where A = d - t*P, then each convergent
    denominator that is a record and each suffix of intermediate
    denominators that are, ending at an exact table.  hit_ts lists the
    hits of t**2 * delta_star < kappa (empty unless `hits`) in ascending
    t, all below the exact table.
    """
    big_p, d = min(p.numerators), p.common_denominator
    a_of = partial(_binary_a, big_p, d)

    def beats(t):   # delta_star(t) below the best so far
        return best is None or a_of(t) * best[1] < best[0] * t

    qs = [q for _, q in cf_convergents(Fraction(big_p, d), d)]  # q_0 = 1, q_1, ...
    t0 = min((d - 1) // big_p, t_max)
    runs = [range(2, t0 + 1)]
    best = (d - t0 * big_p, t0) if t0 >= 2 else None
    for k in range(1, len(qs)):
        q_prev, q = qs[k - 1], qs[k]
        if q > t_max:
            break
        if beats(q):
            runs.append(range(q, q + 1))
            best = (a_of(q), q)
            if best[0] == 0:
                break
        a_next = (qs[k + 1] - q_prev) // q if k + 1 < len(qs) else 0
        # delta_star falls along the intermediates, so their records are a suffix
        cands = range(q_prev + (a_next + 1) // 2 * q,
                      min(q_prev + a_next * q, t_max + 1), q)
        j = bisect.bisect_left(cands, True, key=beats)
        if j < len(cands):
            runs.append(cands[j:])
            best = (a_of(cands[-1]), cands[-1])
    hit_ts = set()
    if hits:
        k_den, rhs = kappa.square.denominator, kappa.square.numerator * d * d
        for q in qs[1:]:
            for t in range(q, t_max + 1, q):
                a = a_of(t)     # a hit: A > 0 and t**2 * delta_star < kappa
                if not (a and (t * a) ** 2 * k_den < rhs):
                    break
                hit_ts.add(t)
    return runs, sorted(hit_ts)


def record_scan(p: ProbabilityVector, t_max: int,
                kappa: Kappa = KAPPA_GENERIC) -> ScanResult:
    """Scan t in [m, t_max]; collect record denominators and fact-constant hits.

    A record is a t whose delta_star is strictly below every smaller t's.
    Exact representation (delta_star = 0) is the final record: the entry is
    emitted with quality 0 and the scan stops.  `fact_hits` lists every
    scanned t (record or not) whose quality beats m/(m+1) for m > 2, or the
    binary constant kappa (pass KAPPA_GOLDEN for golden-equivalent
    sources).  Binary sources take their candidates from the continued
    fraction (_binary_fold), every other source from the chunked scan
    (_fold).  The records are a read-only sequence; a binary source's
    tables come from minmax_freqs_exact, its forced prefix (t < 1/p_min)
    entry by entry as it is read.
    """
    if t_max < p.m:
        raise DenominatorTooSmall(f"t_max = {t_max} < m = {p.m}")
    d = p.common_denominator
    if p.m == 2:
        (forced, *runs), hits = _binary_fold(p, t_max, kappa)

        def entry(t):
            f, a = _kernels.minmax_freqs_exact(p.numerators, d, t)
            return RecordEntry(t, tuple(f), Fraction(a, d * t))

        rest = [entry(t) for t in itertools.chain.from_iterable(runs)]
        return ScanResult(_Records(rest, forced, entry), hits)
    found, hits = [], []
    for chunk, recs, hit_ts in _fold(p, t_max):
        del chunk   # hold no chunk's arrays while the fold works on the next
        hits.extend(hit_ts)
        found.extend(recs)
    ts, tables = [t for t, _, f in found if f is None], {}
    if ts:      # all from chunks that fit int64
        a_rows, f_rows = _kernels._minmax_rows(p.numerators, d,
                                               np.array(ts, dtype=np.int64), True)
        assert a_rows.tolist() == [a for _, a, f in found if f is None]
        tables = dict(zip(ts, f_rows.tolist()))
    return ScanResult(_Records([RecordEntry(t, tuple(tables[t] if f is None else f),
                                            Fraction(a, d * t))
                                for t, a, f in found]), hits)


def scan_rows(p: ProbabilityVector, t_max: int, kappa: Kappa = KAPPA_GENERIC):
    """Per-denominator scan rows for CSV export.

    Yields (t, A, is_record, beats_fact) with delta_star = A/(d*t) exact
    (d = p.common_denominator); the quality of RecordEntry is then t*A/d
    for m = 2 and (t * A**m / d**m)**(1/m) otherwise.  Stops after an
    exact table.  The flags are record_scan's, from _binary_fold (m = 2)
    or _fold, chunk by chunk.  A binary row's A is the closed form
    _binary_a that _binary_fold decides with, so a binary scan builds no
    table.  Every other row's A comes from the fold's _Chunk: its a_tilde
    on a chunk that fits int64, the kernel pass that the fold reads
    wherever it takes every row; _true_a of its tables of p on a
    truncated one.
    """
    if t_max < p.m:
        raise DenominatorTooSmall(f"t_max = {t_max} < m = {p.m}")
    if p.m == 2:
        (forced, *runs), hit_ts = _binary_fold(p, t_max, kappa)
        recs, hits = set(itertools.chain.from_iterable(runs)), set(hit_ts)
        a_of = partial(_binary_a, min(p.numerators), p.common_denominator)
        for t in range(2, t_max + 1):
            a = a_of(t)
            yield t, a, t in forced or t in recs, t in hits
            if a == 0:
                return
        return
    for chunk, recs, hit_ts in _fold(p, t_max, whole=True):
        recs, hits = {t for t, *_ in recs}, set(hit_ts)
        if chunk.g:
            a_rows = _true_a(p, chunk.ts, chunk.tables.tolist())
        else:
            a_rows = chunk.a_tilde.tolist()
        for t, a in enumerate(a_rows, chunk.lo):
            yield t, a, t in recs, t in hits
            if a == 0:
                return
        del chunk, a_rows   # as in record_scan


# ---- width-constrained search -----------------------------------------------

def best_table_under_width(p: ProbabilityVector, width_bits: int) -> FrequencyTable:
    """The table minimizing delta_star exactly over all t in [m, 2**width_bits].

    Ties go to the smallest t.  The guaranteed plan starts from this table;
    when its divergence misses the target, ``bounds.plan_precision`` falls
    back to the smallest t <= 2**width_bits that meets it.  A binary source
    takes it from the continued fraction, which ends at its exact table
    t <= d, so W >= bl(d) gives W = bl(d)'s.  m > 2 scans every t, so a
    width above the coder's _MAX_BITS raises InstanceTooLarge at once.
    """
    if width_bits < register_width(p.m):    # 2**W < m, a negative W included
        raise WidthTooSmall(f"2**{width_bits} < m = {p.m}")
    if p.m == 2:
        t_hi = 1 << min(width_bits, p.common_denominator.bit_length())
        runs, _ = _binary_fold(p, t_hi, hits=False)
        return round_min_max(p, [r for r in runs if r][-1][-1])
    if width_bits > _MAX_BITS:
        raise InstanceTooLarge(
            f"W = {width_bits} would scan every t up to 2**{width_bits} of an "
            f"m = {p.m} source; the limit is the coder's {_MAX_BITS} bits")
    for chunk, recs, _ in _fold(p, 1 << width_bits, hits=False):
        del chunk   # as in record_scan
        if recs:
            best_t = recs[-1][0]
    return round_min_max(p, best_t)
