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
  < 1/4 (bounds.Kappa refuses more), so by Legendre's theorem f_min/t =
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

Every scan takes t in consecutive chunks [lo, hi] (_spans): the first
has `first` rows and each next one twice as many, up to _MAX_CHUNK =
16,384, whose int64 array of t (128 KiB) stays at glibc's mmap
threshold, as _kernels._BLOCK does.  The fold below, `scan_rows` and
`best_table_under_width` start at first = 4,096 rows: the fold confirms
nothing in its first chunk, so it builds all of that chunk's tables at
any length, and after it each chunk pays a fixed cost (Python work,
about 30 numpy calls, the gap cap and gap_screen's passes) that longer
chunks pay less often: a 2*10**5 record scan takes 14 chunks, not 49 of
4,096.  The planner's divergence search (bounds._first_qualifying_t)
stops at its first success, often at a small t, so it starts at 256
rows.  A chunk only groups the rows screened together; every rule below
holds on any chunk, with D, eps and g taken from that chunk's own hi,
so no output depends on the chunk lengths.

`record_scan`, `best_table_under_width` and `scan_rows` take every record
and hit from one place per alphabet kind: _binary_fold for m = 2, the
chunked fold _fold for m > 2.  The fold needs only records and hits, so a
float64 prescreen *excludes* rows, and every remaining candidate is decided
by the integer tests above on the true p, in ascending t: no result rests
on a float or on a truncated source.  (A gap screen, below, first drops
most rows before any table is built.)  The screen reads delta~ =
A~/(D*t) from the int64 kernel, with |delta_star - delta~| <= eps:

* a chunk that fits int64 is scanned on p itself: D = d, eps = 0;
* a chunk [lo, hi] of a source that overflows int64 is scanned on
  p~ = P~/D, with D = (2**62 - 1) // hi and P~ the min-max table of p at
  t = D (largest-remainder rounding, so sum P~ = D and every intermediate
  fits int64).  eps = max_i |p_i - P~_i/D| < 1/D, about hi * 2**-62, is
  computed exactly and rounded up to a float, then widened by a relative
  2**-49.  delta_star(p, t) is a minimum over the tables f of t of
  max_i |p_i - f_i/t|, a maximum of 1-Lipschitz functions of p, so it is
  1-Lipschitz in the sup norm: |delta_star(p, t) - delta_star(p~, t)| <= eps.

A row t is a record candidate when delta~_t - eps lies below both the
confirmed best delta_star (rounded up) and delta~_s + eps for every earlier
row s of its chunk, and a fact-constant candidate when the quality at
max(delta~_t - eps, 0) passes the bound t * (t*delta)**m < (m/(m+1))**m.
The record bound is widened by a relative 1e-9, the hit bound by m * 1e-9.
A true record has delta~_t - eps <= delta_star_t < delta_star_s <=
delta~_s + eps, and a true hit passes at delta_star_t >= delta~_t - eps
since the quality grows with delta; so the absolute eps keeps both
candidates in exact arithmetic, and the relative slack covers the float64
rounding.  Each float quantity carries a relative error of a few units of
2**-53 per operation: about 4 for delta~ (A~, D and two divisions) and for
the running-minimum side, under 5e-16, and about 4m + 8 for
t * (t*delta)**m, since the m-th power multiplies the error of its base by
m: under 2e-15 * m, far below m * 1e-9 for every m.  The differences delta~ - eps and
t*delta~ - t*eps can cancel: where eps exceeds a third of delta~, the
2**-49 widening of eps outweighs the float error of delta~, and elsewhere
the difference keeps a relative error of a few units.  A~/D >= 2**-62 never
underflows; only the m-th power can, far below the bound, and then the row
stays a candidate.  An exact table (delta_star = 0) has delta~ <= eps, so
it is always a record candidate, and once confirmed it ends the scan.

The screen pays while eps is far below the records' delta_star, i.e. while
t**(2 + 1/m) is far below 2**62 (t well below 10**8 for m = 3); beyond
that more rows, up to every row, are candidates.

Before the kernel builds any table, the fold drops most rows by a cheaper
lower bound (_kernels.gap_screen).  Write ||x||_D for the distance from x
to the nearest multiple of D.  For any integers f_i, |t*P_i - f_i*D| >=
||t*P_i||_D, so the gap max_i ||t*P_i||_D is at most the A of every table
at t: gap/D <= t*delta_star(P/D, t), Dirichlet's simultaneous-approximation
quantity max_i ||t*p_i|| (Cassels, An Introduction to Diophantine
Approximation, 1957).  The distance from x to the nearest integer is
1-Lipschitz in x, so on a truncated chunk ||t*P~_i||_D / D lies within
t*eps of ||t*p_i||_d / d; hence gap/D <= t*delta_star(p, t) + t*eps on
every chunk.  So

* a record t has delta_star(t) below the best delta_b confirmed in the
  earlier chunks, and gap < D*t*(delta_b + eps);
* a hit has t*(t*delta_star)**m < (m/(m+1))**m, i.e. t*delta_star <
  m/(m+1) * t**(-1/m), and gap < D*(m/(m+1) * t**(-1/m) + t*eps).

The cap theta(t) is the larger of the two bounds (the record bound alone
when the scan wants no hits), with best_q >= delta_b for delta_b and each
widened by its prescreen slack (_gap_cap), which covers a few units of
2**-53 of float error in each.  Both bounds are convex in t, so theta is,
and on any chunk [lo, hi] it peaks at lo or hi: the chunk's cap is the
larger of those two, floored, since the gap is an integer.  gap_screen
keeps the rows whose gap is at most that cap, symbol by symbol on the
rows still in; only those reach the kernel and the prescreen above.
Every record and every hit is kept, and the kept rows are decided as
before: a record beats every earlier row, and the best of those is
itself a record, so the survivors' running best is the scan's.  The
output is that of the full scan.

Every row is still taken:

* in the first chunk, where nothing is confirmed yet;
* in a chunk whose cap reaches D/4 at lo or hi, where the convex theta
  peaks.  Each symbol's pass keeps about 2*theta/D of the rows, at most
  half of them below D/4; above that the passes cost more than they
  save.  The hit bound 24/25 * t**(-1/24) >= 0.48 of m = 24 never drops
  below 1/4 for t <= 2**24, nor does that of any m >= 13.

`scan_rows` prints every row's exact A, the planner's divergence search
needs every row's exact table of p (both read _iter_chunks), and the fold
needs its candidates' exact A.  So their truncated chunks also carry p's
tables, certified on the kernel's table F~ of P~.  Let a be the A of the
truncation, so |D*p_i - P~_i| <= a/d.  For t <= hi, each scaled value
t*D*p_i then lies within g = ceil(hi*a/d) of t*P~_i; once D*p_min >= 1,
a/d = D*delta_star(p, D) < 1, so g <= hi.  Write n_i and rem_i for the quotient
and remainder of t*P~_i by D.  The smalls are the i with n_i = 0, the bigs
the others, and k = t - sum_i n_i - #smalls is the number of round-ups left
after forcing the smalls to 1.  F~'s row at t is p's min-max table,
tie-breaks included, when

1. g <= rem_i < D - g for every i.  Then t*D*p_i lies in
   [n_i*D, (n_i + 1)*D), so the floors of t*p_i are the n_i.  So p has the
   same smalls and the same k, and its remainders t*D*p_i - n_i*D lie
   within g of the rem_i.
2. k >= 0, so the row does not shed (on p either, by 1).
3. If 0 < k < #bigs, the k-th and (k+1)-th largest remainders among the
   bigs differ by more than 2g.  Then p's k largest remainders among the
   bigs belong to the same symbols, whatever the tie-breaks.

The construction (floors, smalls forced to 1, round-ups to the k largest
remainders among the bigs) then makes the same choices on p as on P~, so
F~'s row is p's table.  The kernel checks the three conditions on the n,
rem and table it already has.  A row that fails one is rebuilt by
minmax_freqs_exact on p.  g/D is about hi**2 * 2**-62 (about 2**-14 at
hi = 2**24, for a chunk of any length), so such rows are rare while
hi**2 is far below 2**62.  `scan_rows` for every row, and the
fold for its candidates, then take the exact A = max_i |t*P_i - F_i*d| from
the table in Python integers.  So the int64 kernel scans every chunk, for
any m; minmax_freqs_exact only builds single tables and rebuilds the rows
the certificate leaves.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
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


def _float_up(n: int, q: int) -> float:
    """The least float >= n/q, for n >= 0 and q > 0."""
    x = n / q
    num, den = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if num * q < n * den else x


def _spans(lo: int, t_max: int, first: int):
    """Consecutive spans (lo, hi) covering [lo, t_max] exactly: the first
    has `first` rows, and each next one twice as many as the one before,
    up to _MAX_CHUNK (the last is cut at t_max)."""
    size = first
    while lo <= t_max:
        hi = min(lo + size - 1, t_max)
        yield lo, hi
        lo, size = hi + 1, min(2 * size, _MAX_CHUNK)


def _chunks(p: ProbabilityVector, t_max: int, first: int = _FIRST_CHUNK):
    """Yield (lo, hi, P, D, eps, g) for the chunks [lo, hi] of _spans(m,
    t_max, first): the int64 kernel scans the chunk on the source P/D, and
    delta_star(p, t) lies within eps of delta_star(P/D, t).  Two kinds of
    chunk, for any m (see the module docstring):

    * fits int64: P = p's numerators, D = d, eps = 0.0, g = 0;
    * overflows int64: the truncated source P~/D, with D = (2**62 - 1) //
      hi, P~ p's min-max table at t = D, and eps that table's delta_star,
      rounded up and widened by a relative 2**-49.  g = ceil(hi*a/d), a
      that table's A, is the slack with which the kernel certifies P~'s
      tables for p; it is capped at D, where no row passes, so that 2g
      stays in int64.
    """
    nums, d = p.numerators, p.common_denominator
    for lo, hi in _spans(p.m, t_max, first):
        if _kernels.fits_int64(nums, d, hi):
            yield lo, hi, nums, d, 0.0, 0
            continue
        den = _INT64_TOP // hi
        p_trunc, a = _kernels.minmax_freqs_exact(nums, d, den)
        eps = _float_up(a, d * den) * (1 + 2.0**-49)
        yield lo, hi, p_trunc, den, eps, min(-(-hi * a // d), den)


def _certify(p: ProbabilityVector, ts, kernel_out):
    """p's min-max tables at the t of the int64 array ts, all in one
    truncated chunk of _chunks, as an int64 (rows, m) array, from the
    kernel's (None, F~, sure) on P~/D with that chunk's slack g: F~ where
    the kernel certifies it for p, minmax_freqs_exact's table elsewhere."""
    _, f, sure = kernel_out
    redo = np.flatnonzero(~sure)
    if redo.size:
        nums, d = p.numerators, p.common_denominator
        f[redo] = [_kernels.minmax_freqs_exact(nums, d, t)[0]
                   for t in ts[redo].tolist()]
    return f


def _true_a(p: ProbabilityVector, ts, rows: list) -> list:
    """A = max_i |t*P_i - f_i*d| of p's tables `rows` (lists) at the t in
    ts, in Python integers."""
    nums, d = p.numerators, p.common_denominator
    return [max(abs(t * v - x * d) for v, x in zip(nums, row))
            for t, row in zip(ts.tolist(), rows)]


def _iter_chunks(p: ProbabilityVector, t_max: int, first: int = _FIRST_CHUNK):
    """Yield (lo, A, F) for the chunks of _chunks(p, t_max, first): F[j] is
    p's min-max table at t = lo + j, an int64 (rows, m) array, on the int64
    kernel for any m (certified on truncated chunks, see _certify).  A is
    the kernel's int64 array of those tables' A where the chunk fits int64,
    and None on a truncated chunk, whose A only _true_a gives."""
    for lo, hi, big_p, den, eps, g in _chunks(p, t_max, first):
        if eps:
            ts = np.arange(lo, hi + 1, dtype=np.int64)
            yield lo, None, _certify(p, ts, _kernels.minmax_scan(big_p, den, lo, hi, True, g))
        else:
            yield lo, *_kernels.minmax_scan(big_p, den, lo, hi, True)


def _threshold_tests(m: int, d: int):
    """Exact, cap and float64 forms of "quality beats m/(m+1)", for m > 2.

    exact(t, a) decides t**(1+1/m) * delta_star < m/(m+1) by the integer
    cross-multiplication t * a**m * (m+1)**m < m**m * d**m, with the
    per-scan constants computed here, once.  cap(t) is the largest integer
    a that passes at t, so for a >= 0, exact(t, a) holds exactly when
    a <= cap(t): a**m <= (m**m * d**m - 1) // (t * (m+1)**m), i.e. a is
    at most the floor m-th root of the right side, non-increasing in t.
    screen(t, x), on float64 arrays with x = t * delta (A/d on an exact
    chunk), is the same inequality widened by a relative m * _SLACK (see
    the module docstring): it is true wherever exact(t, a) is.
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


def _gap_cap(t: int, m: int, den: int, eps: float, best_q: float, hits: bool) -> float:
    """D * theta(t), theta the larger of the record bound t*(best_q + eps)
    and, with `hits`, the m-ary hit bound m/(m+1) * t**(-1/m) + t*eps, each
    widened like its prescreen bound: at least the largest
    max_i ||t*P_i||_D that a record or hit at t can have, for a chunk of
    truncation error eps after a confirmed best delta_star <= best_q (see
    the module docstring).  Convex in t, so on a chunk it peaks at an end."""
    cap = t * (best_q + eps) * (1 + _SLACK)
    if hits:
        cap = max(cap, (m / (m + 1) * t ** (-1 / m) + t * eps) * (1 + m * _SLACK))
    return den * cap


def _fold(p: ProbabilityVector, t_max: int, hits: bool = True):
    """The record/threshold fold of an m > 2 source over _chunks, whose
    first chunk is 4,096 rows and the later ones 8,192 and then 16,384.

    Yields (recs, hit_ts) per chunk: recs lists the (t, A, f) of its
    record denominators and hit_ts its fact-constant hits (empty unless
    `hits`), both in ascending t, with the true A of p; f is p's table at t
    where the fold built it (truncated chunks), else None.  The scan stops
    at the first exact table (A = 0), the final record.

    Each chunk after the first whose gap cap stays below D/4 first keeps
    only the rows that gap_screen passes (see the module docstring).  The
    kernel then gives the kept rows' A~; a float64 prescreen, widened by
    the chunk's eps, excludes the rows that cannot be records or hits, and
    only the remaining candidates are decided exactly (on truncated chunks
    on their true A, from p's certified tables).  Hits are decided by
    _hit_ts.
    """
    m, d = p.m, p.common_denominator
    if hits:
        exact_hit, hit_cap, screen_hit = _threshold_tests(m, d)
    best_a = best_t = None
    best_q = math.inf   # float64 >= the least delta_star so far
    for lo, hi, big_p, den, eps, g in _chunks(p, t_max):
        ts = np.arange(lo, hi + 1, dtype=np.int64)
        t_of = range(lo, hi + 1)    # ts as Python ints
        cap = math.inf
        if best_a is not None:
            cap = max(_gap_cap(t, m, den, eps, best_q, hits) for t in (lo, hi))
        if cap < den / 4:   # the convex cap peaks at lo or hi
            ts = _kernels.gap_screen(big_p, den, ts, int(cap))
            t_of = ts.tolist()
            a_rows = _kernels._minmax_rows(big_p, den, ts)[0]   # A~
        else:
            a_rows = _kernels.minmax_scan(big_p, den, lo, hi)[0]
        t_f = ts.astype(np.float64)
        x = a_rows.astype(np.float64) / float(den)   # t * delta~
        q = x / t_f                                  # delta~
        q_low = q_high = q
        if eps:   # truncated chunk; at eps = 0 these are the identity
            q_low, q_high = q - eps, q + eps
            x = np.maximum(x - t_f * eps, 0.0)      # t * max(delta~ - eps, 0)
        prev = np.minimum.accumulate(np.concatenate(([best_q], q_high[:-1])))
        rec_j = np.flatnonzero(q_low < prev * (1 + _SLACK))
        hit_j = rec_j[:0]
        if hits:
            with np.errstate(over="ignore", under="ignore"):
                hit_j = np.flatnonzero(screen_hit(t_f, x))
        tables = {}     # j: p's table at t = ts[j], where the fold built it
        if eps:   # decide each candidate on the true p
            cand = np.union1d(rec_j, hit_j).tolist()
            t_cand = ts[cand]
            f = _certify(p, t_cand,
                         _kernels._minmax_rows(big_p, den, t_cand, True, g))
            rows = f.tolist()
            tables = dict(zip(cand, rows))
            true_a = dict(zip(cand, _true_a(p, t_cand, rows)))
            rec_cand = [(j, true_a[j]) for j in rec_j.tolist()]
            hit_a = [true_a[j] for j in hit_j.tolist()]
        else:
            rec_cand = zip(rec_j.tolist(), a_rows[rec_j].tolist())
            hit_a = a_rows[hit_j]
        recs, end = [], len(ts)
        for j, a in rec_cand:
            t = t_of[j]
            if best_a is None or a * best_t < best_a * t:
                best_a, best_t = a, t
                recs.append((t, a, tables.get(j)))
                if a == 0:
                    end = j + 1
                    break
        if recs:
            best_q = _float_up(best_a, d * best_t)
        hit_ts = []
        if hits and hit_j.size:
            k = int(np.searchsorted(hit_j, end))    # the rows before `end`
            hit_ts = _hit_ts(lo, ts[hit_j[:k]] - lo, hit_a[:k], exact_hit, hit_cap)
        yield recs, hit_ts
        if best_a == 0:
            return


def _binary_fold(p: ProbabilityVector, t_max: int, kappa=None, hits: bool = True):
    """(runs, hit_ts) of a binary source up to t_max, from the continued
    fraction of x = p_min = P/d (see the module docstring).

    runs are ranges of record denominators, in ascending t: the forced
    prefix range(2, t0 + 1), where A = d - t*P, then each convergent
    denominator that is a record and each suffix of intermediate
    denominators that are, ending at an exact table.  hit_ts lists the
    hits of t**2 * delta_star < kappa (default generic 2**-1.5; empty
    unless `hits`) in ascending t, all below the exact table.
    """
    big_p, d = min(p.numerators), p.common_denominator

    def a_of(t):    # A at t: f_min = 1 where t*x < 1, else the nearest integer
        r = t * big_p
        return d - r if r < d else min(r % d, d - r % d)

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
        kappa_square = kappa.square if kappa is not None else Fraction(1, 8)
        k_den, rhs = kappa_square.denominator, kappa_square.numerator * d * d
        for q in qs[1:]:
            for t in range(q, t_max + 1, q):
                a = a_of(t)     # a hit: A > 0 and t**2 * delta_star < kappa
                if not (a and (t * a) ** 2 * k_den < rhs):
                    break
                hit_ts.add(t)
    return runs, sorted(hit_ts)


def record_scan(p: ProbabilityVector, t_max: int, kappa=None) -> ScanResult:
    """Scan t in [m, t_max]; collect record denominators and fact-constant hits.

    A record is a t whose delta_star is strictly below every smaller t's.
    Exact representation (delta_star = 0) is the final record: the entry is
    emitted with quality 0 and the scan stops.  `fact_hits` lists every
    scanned t (record or not) whose quality beats m/(m+1) for m > 2, or the
    binary constant kappa (default generic 2**-1.5; pass
    ``bounds.KAPPA_GOLDEN`` for golden-equivalent sources).  Binary sources
    take their candidates from the continued fraction (_binary_fold), every
    other source from the chunked scan (_fold).  The records are a
    read-only sequence; a binary source's forced prefix (t < 1/p_min) is
    built entry by entry as it is read.
    """
    if t_max < p.m:
        raise DenominatorTooSmall(f"t_max = {t_max} < m = {p.m}")
    d = p.common_denominator
    if p.m == 2:
        (forced, *runs), hits = _binary_fold(p, t_max, kappa)
        nums = p.numerators
        small = min(nums)
        first = nums[0] == small

        def forced_entry(t):
            return RecordEntry(t, (1, t - 1) if first else (t - 1, 1),
                               Fraction(d - t * small, d * t))

        rest = []
        for t in itertools.chain.from_iterable(runs):
            f, a = _kernels.minmax_freqs_exact(nums, d, t)
            rest.append(RecordEntry(t, tuple(f), Fraction(a, d * t)))
        return ScanResult(_Records(rest, forced, forced_entry), hits)
    found, hits = [], []
    for recs, hit_ts in _fold(p, t_max):
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


def scan_rows(p: ProbabilityVector, t_max: int, kappa=None):
    """Per-denominator scan rows for CSV export.

    Yields (t, A, is_record, beats_fact) with delta_star = A/(d*t) exact
    (d = p.common_denominator); the quality of RecordEntry is then t*A/d
    for m = 2 and (t * A**m / d**m)**(1/m) otherwise.  Stops after an
    exact table.  The flags are record_scan's, from _binary_fold (m = 2)
    or _fold, chunk by chunk; A comes with p's tables (_iter_chunks): the
    kernel's on a chunk that fits int64, _true_a's on a truncated one.
    """
    if t_max < p.m:
        raise DenominatorTooSmall(f"t_max = {t_max} < m = {p.m}")
    if p.m == 2:
        runs, hit_ts = _binary_fold(p, t_max, kappa)
        hit_set = set(hit_ts)

        def in_span(r, lo, hi):     # the t of the range r in [lo, hi]
            return r[bisect.bisect_left(r, lo):bisect.bisect_right(r, hi)]

        flags = (({t for r in runs for t in in_span(r, lo, hi)}, hit_set)
                 for lo, hi in _spans(2, t_max, _FIRST_CHUNK))
    else:
        flags = (({t for t, *_ in recs}, set(hit_ts))
                 for recs, hit_ts in _fold(p, t_max))
    for (rec_set, hit_set), (lo, a_rows, f) in zip(flags, _iter_chunks(p, t_max)):
        if a_rows is None:      # a truncated chunk
            a_rows = _true_a(p, np.arange(lo, lo + len(f), dtype=np.int64), f.tolist())
        else:
            a_rows = a_rows.tolist()
        for t, a in enumerate(a_rows, lo):
            yield t, a, t in rec_set, t in hit_set
            if a == 0:
                return


# ---- width-constrained search -----------------------------------------------

def best_table_under_width(p: ProbabilityVector, width_bits: int) -> FrequencyTable:
    """The table minimizing delta_star exactly over all t in [m, 2**width_bits].

    Ties go to the smallest t.  The guaranteed plan starts from this table;
    when its divergence misses the target, ``bounds.plan_precision`` falls
    back to the smallest t <= 2**width_bits that meets it.  A binary source
    takes it from the continued fraction at any width; m > 2 scans every t,
    so a width above the coder's _MAX_BITS raises InstanceTooLarge at once.
    """
    if width_bits < register_width(p.m):    # 2**W < m, a negative W included
        raise WidthTooSmall(f"2**{width_bits} < m = {p.m}")
    t_hi = 1 << width_bits
    if p.m == 2:
        runs, _ = _binary_fold(p, t_hi, hits=False)
        return round_min_max(p, [r for r in runs if r][-1][-1])
    if width_bits > _MAX_BITS:
        raise InstanceTooLarge(
            f"W = {width_bits} would scan every t up to 2**{width_bits} of an "
            f"m = {p.m} source; the limit is the coder's {_MAX_BITS} bits")
    for recs, _ in _fold(p, t_hi, hits=False):
        if recs:
            best_t = recs[-1][0]
    return round_min_max(p, best_t)
