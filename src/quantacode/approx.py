"""Rational approximation constructions.

Three ways to approximate a source by f/t tables:

* :func:`round_min_max` -- for a fixed denominator t, the table minimizing
  the worst per-symbol error delta_star, by sum-constrained largest-remainder
  rounding (with exact repair when some t*p_i < 1 forces f_i = 1).
* :func:`cf_convergents` -- continued-fraction convergents of a single
  probability, the classical best rational approximations for binary sources.
* :func:`record_scan` -- sweep t upward and keep the denominators whose
  delta_star beats everything smaller ("record" denominators).  Their
  normalized quality (t^2 * delta_star for binary sources, t^(1+1/m) *
  delta_star otherwise) is what the Diophantine existence results constrain,
  so the scan doubles as a desk-scale empirical check of those results.

All record and threshold decisions are exact: with p_i = P_i / d and
A = max_i |t*P_i - f_i*d|, delta_star = A/(d*t), a record is decided by the
cross-multiplication A*t' < A'*t, and e.g. t^(1+1/m)*delta_star < m/(m+1)
by t * A**m * (m+1)**m < m**m * d**m, both in Python integers.

`record_scan` and `best_table_under_width` need only records and hits, so
there a float64 prescreen *excludes* rows, and every remaining candidate is
decided by the integer tests above on the true p, in ascending t: no result
rests on a float or on a truncated source.  The screen reads
delta~ = A~/(D*t) from the int64 kernel, with |delta_star - delta~| <= eps:

* a chunk that fits int64 is scanned on p itself: D = d, eps = 0;
* a chunk [lo, hi] of a source that overflows int64 (m <= 64) is scanned on
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
max(delta~_t - eps, 0) passes the bound: (t**2 * delta)**2 < kappa**2
(m = 2) or t * (t*delta)**m < (m/(m+1))**m, each bound widened by a
relative 1e-9.  A true record has delta~_t - eps <= delta_star_t <
delta_star_s <= delta~_s + eps, and a true hit passes at delta_star_t >=
delta~_t - eps since the quality grows with delta; so the absolute eps
keeps both candidates in exact arithmetic, and the relative slack covers
the float64 rounding.  Each float quantity carries a relative error of a
few units of 2**-53 per operation: about 4 for delta~ (A~, D and two
divisions) and for the running-minimum side, and about 4m + 8 for
t * (t*delta)**m, since the m-th power multiplies the error of its base by
m; m <= 64, so under 4e-14 in all, far below 1e-9.  The differences
delta~ - eps and t*delta~ - t*eps can cancel: where eps exceeds a third of
delta~, the 2**-49 widening of eps outweighs the float error of delta~,
and elsewhere the difference keeps a relative error of a few units.  A~/D >=
2**-62 never underflows; only the m-th power can, far below the bound, and
then the row stays a candidate.  An exact table (delta_star = 0) has
delta~ <= eps, so it is always a record candidate, and once confirmed it
ends the scan.

The screen pays while eps is far below the records' delta_star, i.e. while
t**3 is far below 2**62 (t up to about 10**6 for binary sources).  Beyond
that more rows become candidates, up to every row, which costs the
big-integer path plus the int64 kernel, a few percent more.

`scan_rows` prints every row's exact A, and the planner's divergence
search needs every row's exact table of p.  So their truncated chunks also
carry p's tables, certified on the kernel's table F~ of P~.  Let a be the
A of the truncation, so |D*p_i - P~_i| <= a/d.  For t <= hi, each scaled
value t*D*p_i then lies within g = ceil(hi*a/d) of t*P~_i; once
D*p_min >= 1, a/d = D*delta_star(p, D) < 1, so g <= hi.  Write n_i and
rem_i for the quotient and remainder of t*P~_i by D.  The smalls are the i
with n_i = 0, the bigs the others, and k = t - sum_i n_i - #smalls is the
number of round-ups left after forcing the smalls to 1.  F~'s row at t is
p's min-max table, tie-breaks included, when

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
minmax_freqs_exact on p.  g/D is about hi**2 * 2**-62, so such rows are
rare while hi**2 is far below 2**62.  `scan_rows` then takes each row's
exact A = max_i |t*P_i - F_i*d| from its table in Python integers, and
decides every row exactly.  Only sources with m > 64 that overflow int64
take the big-integer path, where every row is a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .precision import DEFAULT_DPS
from .prob_model import FrequencyTable, ProbabilityVector

_CHUNK = 4096
_SLACK = 1e-9  # relative widening of every float64 prescreen bound
_INT64_TOP = (1 << 62) - 1  # hi * D on a truncated chunk stays at most this


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


def exhaustive_best(p: ProbabilityVector, t: int) -> FrequencyTable:
    """Brute-force oracle: the delta_star minimizer over every composition
    of t into m positive parts (ties: lexicographically smallest), found by
    exact enumeration with a bound that cuts only branches that cannot win.
    Only for m <= 4 and t <= 64."""
    if p.m > 4 or t > 64:
        raise InstanceTooLarge(f"exhaustive search limited to m <= 4, t <= 64; "
                               f"got m = {p.m}, t = {t}")
    if t < p.m:
        raise DenominatorTooSmall(f"t = {t} < m = {p.m}")
    f, _ = _kernels.exhaustive_min(p.numerators, p.common_denominator, t)
    return FrequencyTable.from_freqs(p, f)


# ---- continued fractions ----------------------------------------------------

def continued_fraction_terms(x: Fraction, max_terms: int = 10_000):
    """Continued-fraction coefficients of a rational x (terminating)."""
    num, den = x.numerator, x.denominator
    terms = []
    while den and len(terms) < max_terms:
        a, rem = divmod(num, den)
        terms.append(a)
        num, den = den, rem
    return terms


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
    out = []
    for a in continued_fraction_terms(x):
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
    """A record denominator: strictly smaller delta_star than every smaller t.

    quality is t**2 * delta_star (exact Fraction) for m = 2, else the
    high-precision real t**(1 + 1/m) * delta_star.
    """

    t: int
    freqs: tuple[int, ...]
    delta_star: Fraction
    quality: object


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a record scan up to t_max."""

    records: list
    fact_hits: list        # every scanned t whose quality beats the fact constant
    t_max: int
    m: int
    threshold_label: str

    @property
    def record_ts(self):
        return [r.t for r in self.records]


def _quality_value(m: int, t: int, a: int, d: int):
    if m == 2:
        return Fraction(t * a, d)
    with mp.workdps(DEFAULT_DPS):
        return mp.mpf(t) ** (mp.mpf(1) / m) * mp.mpf(a) / d


def _float_up(n: int, q: int) -> float:
    """The least float >= n/q, for n >= 0 and q > 0."""
    x = n / q
    num, den = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if num * q < n * den else x


def _iter_chunks(p: ProbabilityVector, t_max: int, want_freqs: bool = False):
    """Yield (lo, A, F, D, eps) for consecutive chunks of t in [m, t_max].

    A[j] belongs to t = lo + j, and delta_star(p, t) lies within eps of
    A[j]/(D*t).  F holds p's frequency rows when `want_freqs`, else None.
    Three kinds of chunk:

    * fits int64: A is an int64 ndarray on p itself, D = d, eps = 0.0;
    * overflows int64 with m > 64: A is a list of Python ints from the
      big-integer path, D = d, eps = 0.0;
    * overflows int64 with m <= 64: the int64 kernel scans the truncated
      source P~/D with D = (2**62 - 1) // hi (hi the chunk's last t) and P~
      the min-max table of p at t = D, i.e. largest-remainder rounding with
      sum P~ = D.  eps = max_i |p_i - P~_i/D| is that table's delta_star,
      computed exactly, rounded up to a float and widened by a relative
      2**-49 (see the module docstring).  delta_star is 1-Lipschitz in p
      under the sup norm, so A[j]/(D*t) = delta_star(P~/D, t) is within eps
      of delta_star(p, t).  With `want_freqs`, A is None and F holds p's
      own tables: the kernel certifies each row of P~'s tables for p with
      g = ceil(hi*a/d), where a = d*D*delta_star(p, D) is the truncation's
      A, by the three conditions of the module docstring, and
      minmax_freqs_exact rebuilds every row that fails them.  g is capped
      at D, where no row passes, so that 2g stays in int64.
    """
    nums, d, m = p.numerators, p.common_denominator, p.m
    for lo in range(m, t_max + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, t_max)
        if m > 64 or _kernels.fits_int64(nums, d, hi):
            yield (lo, *_kernels.minmax_scan(nums, d, lo, hi, want_freqs), d, 0.0)
            continue
        den = _INT64_TOP // hi
        p_trunc, a = _kernels.minmax_freqs_exact(nums, d, den)
        eps = _float_up(a, d * den) * (1 + 2.0**-49)
        if not want_freqs:
            yield (lo, *_kernels.minmax_scan(p_trunc, den, lo, hi), den, eps)
            continue
        g = min(-(-hi * a // d), den)
        _, f_chunk, sure = _kernels.minmax_scan(p_trunc, den, lo, hi, True, g)
        redo = np.flatnonzero(~sure)
        if redo.size:
            f_chunk[redo] = [_kernels.minmax_freqs_exact(nums, d, lo + j)[0]
                             for j in redo.tolist()]
        yield lo, None, f_chunk, den, eps


def _threshold_tests(m: int, d: int, kappa):
    """Exact and float64 forms of "quality beats the fact constant".

    exact(t, a) decides t**2 * delta_star < kappa (m = 2; default generic
    2**-1.5) or t**(1+1/m) * delta_star < m/(m+1) by integer
    cross-multiplication, with the per-scan constants computed here, once.
    screen(t, x), on float64 arrays with x = t * delta (A/d on an exact
    chunk), is the same inequality widened by _SLACK: it is true wherever
    exact(t, a) is.
    """
    if m == 2:
        kappa_square = kappa.square if kappa is not None else Fraction(1, 8)
        k_den, rhs = kappa_square.denominator, kappa_square.numerator * d * d
        bound = float(kappa_square) * (1 + _SLACK)
        return (lambda t, a: (t * a) ** 2 * k_den < rhs,
                lambda t, x: (t * x) ** 2 < bound)
    lhs_c, rhs = (m + 1) ** m, m**m * d**m
    bound = float(Fraction(m, m + 1) ** m) * (1 + _SLACK)
    return (lambda t, a: t * a**m * lhs_c < rhs,
            lambda t, x: t * x**m < bound)


def _fold(p: ProbabilityVector, t_max: int, kappa=None, hits: bool = True,
          every_row: bool = False):
    """The record/threshold fold over _iter_chunks.

    Yields (lo, A, recs, hit_ts) per chunk: recs lists the (t, A) of its
    record denominators and hit_ts its fact-constant hits (empty unless
    `hits`), both in ascending t, with the true A of p.  The scan stops at
    the first exact table (A = 0), the final record, and that chunk's A ends
    there.  On ndarray chunks a float64 prescreen, widened by the chunk's
    eps, excludes the rows that cannot be records or hits, and only the
    remaining candidates are decided exactly (on truncated chunks after
    minmax_freqs_exact rebuilds their true A); on big-integer chunks every
    row is a candidate.  With `every_row`, a truncated chunk's A is p's
    own, taken row by row from its certified tables, and every one of its
    rows is a candidate too.
    """
    m, nums, d = p.m, p.numerators, p.common_denominator
    if hits:
        exact_hit, screen_hit = _threshold_tests(m, d, kappa)
    best_a = best_t = None
    best_q = math.inf   # float64 >= the least delta_star so far
    for lo, a_chunk, f_chunk, den, eps in _iter_chunks(p, t_max, every_row):
        if a_chunk is None:     # a truncated chunk with p's tables
            a_chunk = [max(abs(t * v - f * d) for v, f in zip(nums, row))
                       for t, row in enumerate(f_chunk.tolist(), lo)]
        if isinstance(a_chunk, np.ndarray):
            t_f = np.arange(lo, lo + len(a_chunk), dtype=np.float64)
            x = a_chunk.astype(np.float64) / float(den)   # t * delta~
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
            if eps:   # decide each candidate on the true p
                true_a = {j: _kernels.minmax_freqs_exact(nums, d, lo + j)[1]
                          for j in np.union1d(rec_j, hit_j).tolist()}
                rec_cand = [(j, true_a[j]) for j in rec_j.tolist()]
                hit_cand = [(j, true_a[j]) for j in hit_j.tolist()]
            else:
                rec_cand = zip(rec_j.tolist(), a_chunk[rec_j].tolist())
                hit_cand = zip(hit_j.tolist(), a_chunk[hit_j].tolist())
        else:
            rec_cand, hit_cand = enumerate(a_chunk), enumerate(a_chunk)
        recs, end = [], len(a_chunk)
        for j, a in rec_cand:
            t = lo + j
            if best_a is None or a * best_t < best_a * t:
                best_a, best_t = a, t
                recs.append((t, a))
                if a == 0:
                    end = j + 1
                    break
        if recs:
            best_q = _float_up(best_a, d * best_t)
        hit_ts = ([lo + j for j, a in hit_cand if j < end and a and exact_hit(lo + j, a)]
                  if hits else [])
        yield lo, a_chunk[:end], recs, hit_ts
        if best_a == 0:
            return


def record_scan(p: ProbabilityVector, t_max: int, kappa=None) -> ScanResult:
    """Scan t in [m, t_max]; collect record denominators and fact-constant hits.

    A record is a t whose delta_star is strictly below every smaller t's.
    Exact representation (delta_star = 0) is the final record: the entry is
    emitted with quality 0 and the scan stops.  `fact_hits` lists every
    scanned t (record or not) whose quality beats m/(m+1) for m > 2, or the
    binary constant kappa (default generic 2**-1.5; pass
    ``bounds.KAPPA_GOLDEN`` for golden-equivalent sources).
    """
    if t_max < p.m:
        raise DenominatorTooSmall(f"t_max = {t_max} < m = {p.m}")
    m, d = p.m, p.common_denominator
    label = (f"{m}/{m + 1}" if m > 2
             else kappa.label if kappa is not None else "generic")
    records: list[RecordEntry] = []
    hits: list[int] = []
    for _, _, recs, hit_ts in _fold(p, t_max, kappa):
        hits.extend(hit_ts)
        for t, a in recs:
            f, a2 = _kernels.minmax_freqs_exact(p.numerators, d, t)
            assert a2 == a
            records.append(RecordEntry(
                t, tuple(f), Fraction(a, d * t),
                _quality_value(m, t, a, d) if a else Fraction(0),
            ))
    return ScanResult(records, hits, t_max, m, label)


def scan_rows(p: ProbabilityVector, t_max: int, kappa=None):
    """Per-denominator scan rows for CSV export.

    Yields (t, A, is_record, beats_fact) with delta_star = A/(d*t) exact
    (d = p.common_denominator); the quality of RecordEntry is then t*A/d
    for m = 2 and (t * A**m / d**m)**(1/m) otherwise.  Stops after an
    exact table.
    """
    if t_max < p.m:
        raise DenominatorTooSmall(f"t_max = {t_max} < m = {p.m}")
    for lo, a_chunk, recs, hit_ts in _fold(p, t_max, kappa, every_row=True):
        rec_set, hit_set = {t for t, _ in recs}, set(hit_ts)
        for t, a in enumerate(a_chunk.tolist() if isinstance(a_chunk, np.ndarray)
                              else a_chunk, lo):
            yield t, a, t in rec_set, t in hit_set


# ---- width-constrained search -----------------------------------------------

def best_table_under_width(p: ProbabilityVector, width_bits: int) -> FrequencyTable:
    """The table minimizing delta_star exactly over all t in [m, 2**width_bits].

    Ties go to the smallest t.  The guaranteed plan starts from this table;
    when its divergence misses the target, ``bounds.plan_precision`` falls
    back to the smallest t <= 2**width_bits that meets it.
    """
    t_hi = 1 << width_bits
    if t_hi < p.m:
        raise WidthTooSmall(f"2**{width_bits} < m = {p.m}")
    for _, _, recs, _ in _fold(p, t_hi, hits=False):
        if recs:
            best_t = recs[-1][0]
    return round_min_max(p, best_t)
