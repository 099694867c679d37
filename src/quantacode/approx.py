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

On the int64 path a float64 prescreen only *excludes* rows.  A row is a
record candidate when A/t < (1 + 1e-9) * (running minimum of A/t), and a
fact-constant candidate when (t*A/d)**2 < kappa**2 * (1 + 1e-9) (m = 2) or
t * (A/d)**m < (m/(m+1))**m * (1 + 1e-9).  Each float quantity carries a
relative error of a few units of 2**-53 per operation: about 4 for A/t
(8 between a row and the running minimum), and about 4m + 4 for
t * (A/d)**m, since the m-th power multiplies the error of A/d by m; int64
scans have m <= 64, so under 3e-14 in all.  The 1e-9 slack exceeds that,
so every true record or hit is a candidate.  A/d >= 2**-62 never
underflows; only (A/d)**m can, when the true t * (A/d)**m is far below the
bound, and then the row stays a candidate.  Every candidate, and every row
of an exact-path chunk, is then decided by the integer tests above, in
ascending t, so no positive result ever rests on a float.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
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
from .precision import working_dps
from .prob_model import FrequencyTable, ProbabilityVector

_CHUNK = 4096
_SLACK = 1e-9  # relative widening of every float64 prescreen bound


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


def _quality_value(m: int, t: int, a: int, d: int, dps: int | None):
    if m == 2:
        return Fraction(t * a, d)
    with mp.workdps(working_dps(dps)):
        return mp.mpf(t) ** (mp.mpf(1) / m) * mp.mpf(a) / d


def _iter_chunks(p: ProbabilityVector, t_max: int, want_freqs: bool = False,
                 jobs: int = 1):
    """Yield (lo, A, F) for consecutive chunks of t in [m, t_max], in order.

    A[j] is the delta_star numerator of t = lo + j (delta_star = A/(d*t)):
    an int64 ndarray when the scan fits int64, else a list of Python ints.
    F holds the matching frequency rows when `want_freqs`, else None.  On
    the exact path `jobs > 1` splits the range over a process pool; jobs
    must lie in [1, os.cpu_count()], checked before any worker starts
    (the default jobs = 1 skips os.cpu_count(), slow on some systems).
    """
    if jobs != 1 and not 1 <= jobs <= (os.cpu_count() or 1):
        raise InvalidArgument(f"jobs must lie in [1, {os.cpu_count() or 1}] "
                              f"(the CPU count), got {jobs}")
    nums, d, m = p.numerators, p.common_denominator, p.m
    if jobs > 1 and not _kernels.fits_int64(nums, d, t_max):
        step = max(1, (t_max - m + 1) // jobs + 1)
        spans = [(lo, min(lo + step - 1, t_max)) for lo in range(m, t_max + 1, step)]
        with concurrent.futures.ProcessPoolExecutor(jobs) as ex:
            futs = [ex.submit(_kernels.minmax_scan, nums, d, lo, hi, want_freqs)
                    for lo, hi in spans]
            for (lo, _), fut in zip(spans, futs):
                yield (lo, *fut.result())
        return
    for lo in range(m, t_max + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, t_max)
        yield (lo, *_kernels.minmax_scan(nums, d, lo, hi, want_freqs))


def _iter_deltastar(p: ProbabilityVector, t_max: int):
    """Yield (t, A) for t in [m, t_max] with delta_star = A/(d*t), in order."""
    for lo, a_chunk, _ in _iter_chunks(p, t_max):
        for off, a in enumerate(a_chunk):
            yield lo + off, int(a)


def _threshold_tests(m: int, d: int, kappa):
    """Exact and float64 forms of "quality beats the fact constant".

    exact(t, a) decides t**2 * delta_star < kappa (m = 2; default generic
    2**-1.5) or t**(1+1/m) * delta_star < m/(m+1) by integer
    cross-multiplication, with the per-scan constants computed here, once.
    screen(t, x), on float64 arrays with x = A/d, is the same inequality
    widened by _SLACK: it is true wherever exact(t, a) is.
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
          jobs: int = 1):
    """The record/threshold fold over _iter_chunks.

    Yields (lo, A, recs, hit_ts) per chunk: recs lists the (t, A) of its
    record denominators and hit_ts its fact-constant hits (empty unless
    `hits`), both in ascending t.  A ends at the first exact table
    (A = 0), the final record; the scan stops there.  On int64 chunks a
    float64 prescreen excludes the rows that cannot be records or hits, and
    only the remaining candidates are decided exactly; on exact chunks every
    row is a candidate.
    """
    m, d = p.m, p.common_denominator
    if hits:
        exact_hit, screen_hit = _threshold_tests(m, d, kappa)
    best_a = best_t = None
    best_q = math.inf   # float64 min of A/t so far; too high only widens the screen
    for lo, a_chunk, _ in _iter_chunks(p, t_max, jobs=jobs):
        fast = isinstance(a_chunk, np.ndarray)
        if fast:
            zeros = np.flatnonzero(a_chunk == 0)
            stop = int(zeros[0]) if zeros.size else None
        else:
            stop = a_chunk.index(0) if 0 in a_chunk else None
        if stop is not None:
            a_chunk = a_chunk[:stop + 1]
        if fast:
            t_f = np.arange(lo, lo + len(a_chunk), dtype=np.float64)
            a_f = a_chunk.astype(np.float64)
            q = a_f / t_f
            prev = np.minimum.accumulate(np.concatenate(([best_q], q[:-1])))
            best_q = min(float(prev[-1]), float(q[-1]))
            rec_j = np.flatnonzero(q < prev * (1 + _SLACK))
            rec_cand = zip(rec_j.tolist(), a_chunk[rec_j].tolist())
            if hits:
                with np.errstate(over="ignore", under="ignore"):
                    hit_j = np.flatnonzero(screen_hit(t_f, a_f / float(d)))
                hit_cand = zip(hit_j.tolist(), a_chunk[hit_j].tolist())
        else:
            rec_cand, hit_cand = enumerate(a_chunk), enumerate(a_chunk)
        recs = []
        for j, a in rec_cand:
            t = lo + j
            if best_a is None or a * best_t < best_a * t:
                best_a, best_t = a, t
                recs.append((t, a))
        hit_ts = ([lo + j for j, a in hit_cand if a and exact_hit(lo + j, a)]
                  if hits else [])
        yield lo, a_chunk, recs, hit_ts
        if stop is not None:
            return


def record_scan(p: ProbabilityVector, t_max: int, kappa=None, jobs: int = 1,
                dps: int | None = None) -> ScanResult:
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
    for _, _, recs, hit_ts in _fold(p, t_max, kappa, jobs=jobs):
        hits.extend(hit_ts)
        for t, a in recs:
            f, a2 = _kernels.minmax_freqs_exact(p.numerators, d, t)
            assert a2 == a
            records.append(RecordEntry(
                t, tuple(f), Fraction(a, d * t),
                _quality_value(m, t, a, d, dps) if a else Fraction(0),
            ))
    return ScanResult(records, hits, t_max, m, label)


def scan_rows(p: ProbabilityVector, t_max: int, kappa=None, jobs: int = 1):
    """Per-denominator scan rows for CSV export.

    Yields (t, A, is_record, beats_fact) with delta_star = A/(d*t) exact
    (d = p.common_denominator); the quality of RecordEntry is then t*A/d
    for m = 2 and (t * A**m / d**m)**(1/m) otherwise.  Stops after an
    exact table.
    """
    if t_max < p.m:
        raise DenominatorTooSmall(f"t_max = {t_max} < m = {p.m}")
    for lo, a_chunk, recs, hit_ts in _fold(p, t_max, kappa, jobs=jobs):
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
