"""Closed-form redundancy bounds and the register-width planner.

Coding a source p with a quantized model f/t costs D(p || f/t) =
sum_i p_i ln(p_i t / f_i) nats per symbol on top of the entropy.  This
module evaluates that divergence at the working precision and the chain of
closed-form bounds on it:

* the error bound m * delta_star / (1 - delta_star / p_min), valid whenever
  delta_star < p_min (``lemma1_bound``);
* its specialization to nearest-integer rounding, delta_star <= 1/(2t)
  (``theorem1_bound``);
* the Diophantine-record specializations delta_star < t**-(1+1/m) for m > 2
  and delta_star < kappa / t**2 for binary sources, where kappa is 5**-0.5
  for golden-ratio-equivalent sources and 2**-1.5 otherwise
  (``theorem2_bound_mary`` / ``theorem2_bound_binary``);
* the induced width bounds: W < log2(m/R + 1/p_min) always suffices for a
  target redundancy R, and record denominators shrink that to roughly a
  m/(m+1) fraction (half, for binary sources) (``corollary1_width`` /
  ``corollary2_width``).

``plan_precision`` turns the bounds into a concrete (W, t, table) choice and
verifies the achieved divergence exactly.  All bound values are returned in
nats (dividing by ln 2 gives bits); the width formulas use log2 since W
counts bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from . import _kernels
from .approx import _iter_chunks, best_table_under_width, continued_fraction_terms
from .errors import (
    AlphabetNotMary,
    DimensionMismatch,
    KappaMissing,
    NonPositiveTarget,
    PreconditionViolated,
    RatioNotLessThanOne,
    TargetUnachievableWithinScan,
    ZeroFrequency,
)
from .precision import format_decimal, to_mpf, working_dps
from .prob_model import (
    FrequencyTable,
    ProbabilityVector,
    error_profile,
    memory_cost,
    register_width,
)

# ---- kappa ------------------------------------------------------------------

@dataclass(frozen=True)
class Kappa:
    """Binary approximation constant; square is exact (1/5 or 1/8)."""

    label: str
    square: Fraction

    def value(self, dps: int | None = None) -> mp.mpf:
        with mp.workdps(working_dps(dps)):
            return mp.sqrt(mp.mpf(self.square.numerator) / self.square.denominator)

    def __float__(self) -> float:
        return float(self.square.numerator / self.square.denominator) ** 0.5


KAPPA_GOLDEN = Kappa("golden", Fraction(1, 5))
KAPPA_GENERIC = Kappa("generic", Fraction(1, 8))


def kappa_select(golden_equivalent: bool) -> Kappa:
    """5**-0.5 when the leading probability is golden-ratio equivalent, else 2**-1.5."""
    return KAPPA_GOLDEN if golden_equivalent else KAPPA_GENERIC


def looks_golden_equivalent(x: Fraction, run_length: int = 20) -> bool:
    """Heuristic: does x look equivalent to (sqrt(5)-1)/2?

    Golden-equivalent reals have continued fractions ending in all 1s, so any
    rational stand-in of one carries a long run of unit coefficients before
    the expansion degenerates at the precision horizon.  We flag inputs whose
    expansion contains >= run_length consecutive 1s (a random rational does,
    with probability ~0.415**run_length).  Purely advisory; kappa selection
    stays an explicit caller decision.
    """
    run = 0
    for a in continued_fraction_terms(x)[1:]:  # drop the integer part (0)
        run = run + 1 if a == 1 else 0
        if run >= run_length:
            return True
    return False


# ---- divergence -------------------------------------------------------------

class DivergencePair(NamedTuple):
    nats: mp.mpf
    bits: mp.mpf


def kl_divergence(p: ProbabilityVector, table: FrequencyTable,
                  dps: int | None = None) -> DivergencePair:
    """D(p || f/t) = sum_i p_i log(p_i t / f_i), in nats and bits.

    Exact rational inputs, one rounding per term at the working precision
    (default 50 digits).
    """
    if table.m != p.m:
        raise DimensionMismatch(f"table has {table.m} symbols, source has {p.m}")
    if any(f < 1 for f in table.freqs):
        raise ZeroFrequency("model assigns zero frequency to a symbol")
    with mp.workdps(working_dps(dps)):
        t = table.t
        nats = mp.fsum(
            (mp.mpf(x.numerator) / x.denominator)
            * mp.log(mp.mpf(x.numerator * t) / (x.denominator * f))
            for x, f in zip(p.probs, table.freqs)
        )
        return DivergencePair(nats, nats / mp.log(2))


def divergence_upper_exact(p: ProbabilityVector, table: FrequencyTable) -> Fraction:
    """Exact rational upper bound sum_i p_i * d_i / phat_i >= D(p || f/t).

    Follows from -log(1-x) <= x/(1-x); used for fast exact soundness checks
    where evaluating logarithms would be wasteful.
    """
    nums, d = p.numerators, p.common_denominator
    t, f = table.t, table.freqs
    num_total = 0
    den_prod = 1
    for fi in f:
        den_prod *= fi
    for i in range(p.m):
        e = t * nums[i] - f[i] * d
        num_total += nums[i] * e * (den_prod // f[i])
    return Fraction(num_total, d * d * den_prod)


# ---- closed-form bounds -----------------------------------------------------

def lemma1_exact(m: int, delta_star: Fraction, p_min: Fraction) -> Fraction:
    """m * delta_star / (1 - delta_star/p_min), exact."""
    if delta_star >= p_min:
        raise RatioNotLessThanOne(
            f"delta_star/p_min = {delta_star}/{p_min} must be < 1"
        )
    return m * delta_star * p_min / (p_min - delta_star)


def lemma1_bound(m: int, delta_star: Fraction, p_min: Fraction,
                 dps: int | None = None) -> mp.mpf:
    """Divergence upper bound in nats from the maximum quantization error."""
    exact = lemma1_exact(m, Fraction(delta_star), Fraction(p_min))
    return to_mpf(exact, dps)


def theorem1_exact(m: int, t: int, p_min: Fraction) -> Fraction:
    """(m/(2t)) / (1 - 1/(2 t p_min)), exact; needs 2 t p_min > 1."""
    if 2 * t * p_min <= 1:
        raise PreconditionViolated(f"need 2*t*p_min > 1, got t = {t}, p_min = {p_min}")
    return Fraction(m) * p_min / (2 * t * p_min - 1)


def theorem1_bound(m: int, t: int, p_min: Fraction, dps: int | None = None) -> mp.mpf:
    """Redundancy bound (nats) achievable at any denominator t by min-max rounding."""
    return to_mpf(theorem1_exact(m, t, Fraction(p_min)), dps)


def theorem2_bound_mary(m: int, t: int, p_min: Fraction,
                        dps: int | None = None) -> mp.mpf:
    """(m / t**(1+1/m)) / (1 - 1/(t**(1+1/m) p_min)), nats; record denominators
    of an m-ary source (m > 2) achieve this."""
    if m <= 2:
        raise AlphabetNotMary(f"m-ary bound needs m > 2, got m = {m}")
    p_min = Fraction(p_min)
    # t**(1+1/m) * p_min > 1  <=>  t**(m+1) * p_min**m > 1, exactly
    if t ** (m + 1) * p_min.numerator**m <= p_min.denominator**m:
        raise PreconditionViolated(
            f"need t**(1+1/m)*p_min > 1, got t = {t}, p_min = {p_min}"
        )
    with mp.workdps(working_dps(dps)):
        u = mp.mpf(t) ** (1 + mp.mpf(1) / m)
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        return (m / u) / (1 - 1 / (u * pm))


def theorem2_bound_binary(t: int, p_min: Fraction, kappa: Kappa,
                          dps: int | None = None) -> mp.mpf:
    """(2 kappa / t**2) / (1 - kappa/(t**2 p_min)), nats; binary record
    denominators achieve this with the appropriate kappa."""
    p_min = Fraction(p_min)
    # t**2 * p_min > kappa  <=>  (t**2 p_min)**2 > kappa**2, exactly
    lhs = (t * t * p_min.numerator) ** 2 * kappa.square.denominator
    rhs = p_min.denominator**2 * kappa.square.numerator
    if lhs <= rhs:
        raise PreconditionViolated(
            f"need t**2 * p_min > kappa, got t = {t}, p_min = {p_min}"
        )
    with mp.workdps(working_dps(dps)):
        k = kappa.value(dps)
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        tt = mp.mpf(t) ** 2
        return (2 * k / tt) / (1 - k / (tt * pm))


class WidthBound(NamedTuple):
    width: int      # guaranteed-sufficient register width
    raw: mp.mpf     # the real-valued bound log2(m/R + 1/p_min)


def corollary1_width(m: int, target_r, p_min: Fraction,
                     dps: int | None = None) -> WidthBound:
    """Register width sufficient for target redundancy R (nats), any source.

    The raw bound is log2(m/R + 1/p_min); any width strictly below it is
    achievable, so the returned integer is the largest one below the raw
    value (clamped to >= 1 for degenerate targets).
    """
    r = to_mpf(target_r, dps)
    if not r > 0:
        raise NonPositiveTarget(f"target redundancy must be > 0, got {target_r}")
    p_min = Fraction(p_min)
    with mp.workdps(working_dps(dps)):
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        raw = mp.log(m / r + 1 / pm) / mp.log(2)
        fl = mp.floor(raw)
        width = int(fl) - 1 if fl == raw else int(fl)
        return WidthBound(max(width, 1), raw)


def corollary2_width(m: int, target_r, p_min: Fraction, kappa: Kappa | None = None,
                     dps: int | None = None) -> mp.mpf:
    """Existence width bound for record denominators (real-valued, not a
    guarantee for any specific t).

    m > 2: (m/(m+1)) * log2(m/R + 1/p_min) + 1, no kappa.
    m = 2: (1/2) * log2(2/R + 1/p_min) + (1/2) * log2(4 kappa).
    """
    r = to_mpf(target_r, dps)
    if not r > 0:
        raise NonPositiveTarget(f"target redundancy must be > 0, got {target_r}")
    if m == 2 and kappa is None:
        raise KappaMissing("binary width bound needs an explicit kappa")
    if m > 2 and kappa is not None:
        raise ValueError("kappa only applies to binary sources")
    p_min = Fraction(p_min)
    with mp.workdps(working_dps(dps)):
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        log2 = mp.log(2)
        if m > 2:
            return (mp.mpf(m) / (m + 1)) * mp.log(m / r + 1 / pm) / log2 + 1
        k = kappa.value(dps)
        return (mp.log(2 / r + 1 / pm) / log2 + mp.log(4 * k) / log2) / 2


# ---- combined report ----------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Exact divergence of one (p, table) pair next to every applicable bound.

    A bound is flagged applicable only when its full premise holds for this
    table (domain precondition plus the delta_star qualification), in which
    case divergence_nats <= bound is a theorem.
    """

    m: int
    t: int
    delta_star: Fraction
    ratio: Fraction
    divergence_nats: mp.mpf
    divergence_bits: mp.mpf
    lemma1: mp.mpf | None
    theorem1: mp.mpf | None
    theorem2: mp.mpf | None
    kappa: Kappa | None
    applicable: dict = field(default_factory=dict)

    def human_text(self, dps: int | None = None) -> str:
        def fmt(v):
            return "n/a" if v is None else format_decimal(v, 12)

        flags = ", ".join(f"{k}={'yes' if v else 'no'}"
                          for k, v in self.applicable.items())
        lines = [
            f"alphabet m = {self.m}, denominator t = {self.t}, "
            f"register width W = {register_width(self.t)}",
            f"delta_star = {self.delta_star} "
            f"({format_decimal(self.delta_star, 12)}), "
            f"delta_star/p_min = {format_decimal(self.ratio, 12)}",
            f"divergence: {format_decimal(self.divergence_nats, 12)} nats/sym = "
            f"{format_decimal(self.divergence_bits, 12)} bits/sym",
            f"error bound (nats):        {fmt(self.lemma1)}",
            f"rounding bound (nats):     {fmt(self.theorem1)}",
            f"record bound (nats):       {fmt(self.theorem2)}"
            + (f"  [kappa = {self.kappa.label}]" if self.kappa else ""),
            f"applicable: {flags}",
            f"working precision: {working_dps(dps)} digits",
        ]
        return "\n".join(lines)

    CSV_HEADER = ("m,t,delta_star,divergence_nats,divergence_bits,"
                  "lemma1_nats,theorem1_nats,theorem2_nats,kappa,applicable")

    def csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else format_decimal(v, 12)

        flags = "|".join(k for k, v in self.applicable.items() if v)
        return ",".join([
            str(self.m), str(self.t), format_decimal(self.delta_star, 12),
            format_decimal(self.divergence_nats, 12),
            format_decimal(self.divergence_bits, 12),
            fmt(self.lemma1), fmt(self.theorem1), fmt(self.theorem2),
            self.kappa.label if self.kappa else "", flags,
        ])


def build_bound_report(p: ProbabilityVector, table: FrequencyTable,
                       kappa: Kappa | None = None,
                       dps: int | None = None) -> BoundReport:
    """Evaluate the divergence and every bound whose premise holds."""
    prof = error_profile(p, table)
    ds, pm, m, t = prof.delta_star, p.p_min, p.m, table.t
    div = kl_divergence(p, table, dps)
    applicable = {}

    lemma1 = None
    if prof.ratio < 1:
        lemma1 = lemma1_bound(m, ds, pm, dps)
        applicable["lemma1"] = True
    else:
        applicable["lemma1"] = False

    theorem1 = None
    qual1 = 2 * t * ds <= 1  # delta_star <= 1/(2t), exact
    if 2 * t * pm > 1:
        theorem1 = theorem1_bound(m, t, pm, dps)
    applicable["theorem1"] = theorem1 is not None and qual1

    theorem2 = None
    used_kappa = None
    if m == 2:
        used_kappa = kappa or KAPPA_GENERIC
        sq = used_kappa.square
        dom = (t * t * pm.numerator) ** 2 * sq.denominator > pm.denominator**2 * sq.numerator
        qual2 = ((ds.numerator * t * t) ** 2 * sq.denominator
                 <= ds.denominator**2 * sq.numerator)  # delta_star <= kappa/t**2
        if dom:
            theorem2 = theorem2_bound_binary(t, pm, used_kappa, dps)
        applicable["theorem2"] = theorem2 is not None and qual2
    else:
        dom = t ** (m + 1) * pm.numerator**m > pm.denominator**m
        qual2 = ds.numerator**m * t ** (m + 1) <= ds.denominator**m
        if dom:
            theorem2 = theorem2_bound_mary(m, t, pm, dps)
        applicable["theorem2"] = theorem2 is not None and qual2

    return BoundReport(m, t, ds, prof.ratio, div.nats, div.bits,
                       lemma1, theorem1, theorem2, used_kappa, applicable)


# ---- precision planner --------------------------------------------------------

@dataclass(frozen=True)
class PrecisionPlan:
    """A verified (W, t, table) choice for a target redundancy."""

    target_r: mp.mpf
    width_bits: int
    t: int
    table: FrequencyTable
    verified_divergence: mp.mpf     # nats, recomputed on the final table
    corollary1_width: int
    raw_width_bound: mp.mpf
    memory_bits: int
    mode: str

    def __post_init__(self):
        if not self.verified_divergence <= self.target_r:
            raise ValueError("plan verification failed: divergence above target")
        # corollary-1 clamps to >= 1, which can dip below the smallest width
        # able to hold m symbols at all; allow that floor
        floor = register_width(max(self.table.m, 2))
        if self.width_bits > max(self.corollary1_width, floor):
            raise ValueError("plan width exceeds the guaranteed-sufficient width")
        if self.memory_bits != memory_cost(self.table.m, self.width_bits):
            raise ValueError("memory cost must be m * W")

    def eta(self, dps: int | None = None) -> mp.mpf:
        """Achieved width per log2(m/R): the implementation-quality ratio."""
        with mp.workdps(working_dps(dps)):
            return self.width_bits / (mp.log(self.table.m / self.target_r)
                                      / mp.log(2))

    def human_text(self, dps: int | None = None) -> str:
        return "\n".join([
            f"mode: {self.mode}",
            f"target redundancy: {format_decimal(self.target_r, 12)} nats/sym",
            f"chosen t = {self.t}, W = {self.width_bits} bits, "
            f"memory = {self.memory_bits} bits",
            f"verified divergence: "
            f"{format_decimal(self.verified_divergence, 12)} nats/sym",
            f"guaranteed-sufficient width: {self.corollary1_width} "
            f"(raw bound {format_decimal(self.raw_width_bound, 12)})",
            f"eta = W / log2(m/R) = {format_decimal(self.eta(dps), 12)}",
            f"working precision: {working_dps(dps)} digits",
        ])

    CSV_HEADER = ("mode,target_r_nats,t,width_bits,memory_bits,"
                  "verified_divergence_nats,corollary1_width,raw_width_bound,eta")

    def csv_row(self) -> str:
        return ",".join([
            self.mode, format_decimal(self.target_r, 12), str(self.t),
            str(self.width_bits), str(self.memory_bits),
            format_decimal(self.verified_divergence, 12),
            str(self.corollary1_width), format_decimal(self.raw_width_bound, 12),
            format_decimal(self.eta(), 12),
        ])


def _first_qualifying_t(p: ProbabilityVector, r: mp.mpf, t_cap: int,
                        dps: int | None):
    """Smallest t whose exact divergence is <= r, or None.

    Float64 prescreen per denominator; candidates near the target are decided
    at the working precision, in ascending t, so the first exact hit wins.
    """
    m = p.m
    pf = np.array([float(x) for x in p.probs])
    log_term = float(np.dot(pf, np.log(pf)))
    r_float = float(r)
    screen = r_float * (1 + 1e-9) + 1e-300
    wdps = working_dps(dps)
    for lo, a_arr, f_arr in _iter_chunks(p, t_cap, want_freqs=True):
        if isinstance(f_arr, list):
            cand = []
            for off, f in enumerate(f_arr):
                t = lo + off
                dv = log_term + np.log(t) - sum(
                    pf[i] * np.log(f[i]) for i in range(m))
                if dv <= screen:
                    cand.append((t, f))
        else:
            t_range = np.arange(lo, lo + len(a_arr), dtype=np.float64)
            d_float = (log_term + np.log(t_range)
                       - np.log(np.asarray(f_arr, dtype=np.float64)) @ pf)
            cand = [(lo + int(j), tuple(int(v) for v in f_arr[j]))
                    for j in np.flatnonzero(d_float <= screen)]
        with mp.workdps(wdps):
            pm_ = [mp.mpf(x.numerator) / x.denominator for x in p.probs]
            for t, f in cand:
                dv = mp.fsum(pm_[i] * mp.log(pm_[i] * t / f[i]) for i in range(m))
                if dv <= r:
                    return t
    return None


def plan_precision(p: ProbabilityVector, target_r, mode: str = "guaranteed",
                   dps: int | None = None) -> PrecisionPlan:
    """Choose (W, t, table) achieving divergence <= target_r nats.

    guaranteed: take the always-sufficient width from corollary1_width, pick
    the delta_star-minimizing table within it, verify exactly.
    opportunistic: scan t upward and return the first denominator whose exact
    divergence meets the target; its width is typically near the record
    (corollary-2) bound for favorable sources.

    Both modes give up once t would exceed 2**(corollary1_width + 2); the two
    extra bits absorb the worst-case gap between delta_star < 1/t and the
    1/(2t) the width bound assumes.
    """
    if mode not in ("guaranteed", "opportunistic"):
        raise ValueError(f"unknown mode {mode!r}")
    r = to_mpf(target_r, dps)
    if not r > 0:
        raise NonPositiveTarget(f"target redundancy must be > 0, got {target_r}")
    w1, raw = corollary1_width(p.m, r, p.p_min, dps)
    w_eff = max(w1, register_width(p.m))
    cap = 1 << (w1 + 2)

    if mode == "guaranteed":
        table = best_table_under_width(p, w_eff, "min_delta", dps=dps)
        dv = kl_divergence(p, table, dps).nats
        if not dv <= r:
            table = best_table_under_width(p, w_eff, "min_divergence", dps=dps)
            dv = kl_divergence(p, table, dps).nats
            if not dv <= r:
                raise TargetUnachievableWithinScan(
                    f"no denominator up to 2**{w_eff} reaches "
                    f"{format_decimal(r, 8)} nats"
                )
    else:
        t = _first_qualifying_t(p, r, min(cap, 1 << 24), dps)
        if t is None:
            raise TargetUnachievableWithinScan(
                f"no denominator up to 2**{w1 + 2} reaches "
                f"{format_decimal(r, 8)} nats"
            )
        f, _ = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator, t)
        table = FrequencyTable.from_freqs(p, f)

    verified = kl_divergence(p, table, dps).nats
    width = table.width_bits
    return PrecisionPlan(r, width, table.t, table, verified, w1, raw,
                         memory_cost(p.m, width), mode)
