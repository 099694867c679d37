"""Closed-form redundancy bounds and the register-width planner.

Coding a source p with a quantized model f/t costs D(p || f/t) =
sum_i p_i ln(p_i t / f_i) nats per symbol on top of the entropy.  This
module evaluates that divergence, at digits derived from the inputs, and the
chain of closed-form bounds on it:

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
  ``corollary2_width``);
* the second-order width: D <= ln(1 + chi2) <= chi2 (chi-square, by
  Jensen) <= delta_star**2 * sum_i 1/(p_i - delta_star) guarantees R at
  about half of corollary 1's width for any source (``second_order_width``).

``plan_precision`` turns the bounds into a concrete (W, t, table) choice and
verifies the achieved divergence exactly.  All bound values are returned in
nats (dividing by ln 2 gives bits); the width formulas use log2 since W
counts bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .approx import KAPPA_GENERIC, KAPPA_GOLDEN, Kappa  # noqa: F401  (re-exported)
from .approx import _MAX_BITS, _chunks, best_table_under_width, round_min_max
from .errors import (
    AlphabetNotMary,
    DimensionMismatch,
    InvalidArgument,
    KappaMissing,
    NonPositiveTarget,
    PreconditionViolated,
    RatioNotLessThanOne,
    TargetUnachievableWithinScan,
    ZeroFrequency,
)
from .precision import DEFAULT_DPS, format_decimal, format_exact, to_mpf
from .prob_model import (
    FrequencyTable,
    ProbabilityVector,
    error_profile,
    memory_cost,
    register_width,
)


# ---- divergence -------------------------------------------------------------

class DivergencePair(NamedTuple):
    nats: mp.mpf
    bits: mp.mpf


def kl_divergence(p: ProbabilityVector, table: FrequencyTable) -> DivergencePair:
    """D(p || f/t) = sum_i p_i log(p_i t / f_i), in nats and bits.

    Exact rational inputs, one rounding per term at _kl_dps(p, table)
    digits, so the result is within D * 1e-13 of D.
    """
    if table.m != p.m:
        raise DimensionMismatch(f"table has {table.m} symbols, source has {p.m}")
    if any(f < 1 for f in table.freqs):
        raise ZeroFrequency("model assigns zero frequency to a symbol")
    with mp.workdps(_kl_dps(p, table)):
        t = table.t
        nats = mp.fsum(
            (mp.mpf(x.numerator) / x.denominator)
            * mp.log(mp.mpf(x.numerator * t) / (x.denominator * f))
            for x, f in zip(p.probs, table.freqs)
        )
        return DivergencePair(nats, nats / mp.log(2))


def _kl_dps(p: ProbabilityVector, table: FrequencyTable) -> int:
    """Digits at which kl_divergence evaluates D = D(p || f/t).

    Rounding each term and their sum at dps digits moves the sum from D by
    under 10**(1 - dps) * (c + D), c = ln m + ln t + 2.  The terms have size
    about delta_star and cancel to a D of about delta_star**2, so this
    raises DEFAULT_DPS where needed to keep that bound at most D * 1e-13,
    which also keeps all 12 digits a report prints right.  Pinsker's
    inequality with sum_i |p_i - f_i/t| >= 2 * delta_star gives
    D >= 2 * delta_star**2, so dps >= 15 + log10(c / (2 * delta_star**2))
    suffices.  An exact table (delta_star = 0) has D = 0 at any precision.
    """
    nums, d, t = p.numerators, p.common_denominator, table.t
    a = max(abs(t * n - f * d) for n, f in zip(nums, table.freqs))
    if a == 0:
        return DEFAULT_DPS
    log_c = math.log10((math.log(p.m) + math.log(t) + 2) / 2)
    log_ds = math.log10(a) - math.log10(d * t)   # delta_star = a / (d*t)
    return max(DEFAULT_DPS, 15 + math.ceil(max(log_c - 2 * log_ds, 0)))


# ---- closed-form bounds -----------------------------------------------------
#
# The closed forms below, the corollary widths and PrecisionPlan.eta are
# evaluated at DEFAULT_DPS digits, which keeps all 12 digits a report prints
# right.  Each takes at most m + 10 roundings of relative size 10**(1 - dps)
# on positive terms, with no cancellation (the theorem 2 bounds are written
# so), so it is within 1e-13 of its value, relative, once
# dps >= 14 + log10(m + 10): at most 50 for every m + 10 <= 10**36, which
# covers any vector that fits in memory.  The logarithms have arguments of
# at least 2 (m/R + 1/p_min) and e (m/R, for any target R below m/e), so
# they keep that error.

def lemma1_exact(m: int, delta_star: Fraction, p_min: Fraction) -> Fraction:
    """m * delta_star / (1 - delta_star/p_min), exact."""
    if delta_star >= p_min:
        raise RatioNotLessThanOne(
            f"delta_star/p_min = {format_decimal(delta_star / p_min, 12)} must be < 1"
        )
    return m * delta_star * p_min / (p_min - delta_star)


def lemma1_bound(m: int, delta_star: Fraction, p_min: Fraction) -> mp.mpf:
    """Divergence upper bound in nats from the maximum quantization error."""
    return to_mpf(lemma1_exact(m, Fraction(delta_star), Fraction(p_min)))


def theorem1_exact(m: int, t: int, p_min: Fraction) -> Fraction:
    """(m/(2t)) / (1 - 1/(2 t p_min)), exact; needs 2 t p_min > 1."""
    if 2 * t * p_min <= 1:
        raise PreconditionViolated(f"need 2*t*p_min > 1, got t = {t}, "
                                   f"p_min = {format_decimal(p_min, 12)}")
    return Fraction(m) * p_min / (2 * t * p_min - 1)


def theorem1_bound(m: int, t: int, p_min: Fraction) -> mp.mpf:
    """Redundancy bound (nats) achievable at any denominator t by min-max rounding."""
    return to_mpf(theorem1_exact(m, t, Fraction(p_min)))


def theorem2_bound_mary(m: int, t: int, p_min: Fraction) -> mp.mpf:
    """(m / t**(1+1/m)) / (1 - 1/(t**(1+1/m) p_min)), nats; record denominators
    of an m-ary source (m > 2) achieve this."""
    if m <= 2:
        raise AlphabetNotMary(f"m-ary bound needs m > 2, got m = {m}")
    p_min = Fraction(p_min)
    # t**(1+1/m) * p_min > 1  <=>  t**(m+1) * p_min**m > 1, exactly
    if t ** (m + 1) * p_min.numerator**m <= p_min.denominator**m:
        raise PreconditionViolated(
            f"need t**(1+1/m)*p_min > 1, got t = {t}, "
            f"p_min = {format_decimal(p_min, 12)}"
        )
    # = m * p_min / (y - 1) with y = t**(1+1/m) * p_min, written without
    # cancellation: y - 1 = (y**m - 1) / sum_{j<m} y**j, y**m exact
    gap = t ** (m + 1) * p_min**m - 1
    with mp.workdps(DEFAULT_DPS):
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        y = mp.mpf(t) ** (1 + mp.mpf(1) / m) * pm
        return m * pm * mp.fsum(y**j for j in range(m)) / to_mpf(gap)


def theorem2_bound_binary(t: int, p_min: Fraction, kappa: Kappa) -> mp.mpf:
    """(2 kappa / t**2) / (1 - kappa/(t**2 p_min)), nats; binary record
    denominators achieve this with the appropriate kappa."""
    p_min = Fraction(p_min)
    # t**2 * p_min > kappa  <=>  (t**2 p_min)**2 > kappa**2, exactly
    lhs = (t * t * p_min.numerator) ** 2 * kappa.square.denominator
    rhs = p_min.denominator**2 * kappa.square.numerator
    if lhs <= rhs:
        raise PreconditionViolated(
            f"need t**2 * p_min > kappa, got t = {t}, "
            f"p_min = {format_decimal(p_min, 12)}"
        )
    # = 2 kappa p_min / (t**2 p_min - kappa), written without cancellation:
    # t**2 p_min - kappa = ((t**2 p_min)**2 - kappa**2) / (t**2 p_min + kappa)
    gap = (t * t * p_min) ** 2 - kappa.square
    with mp.workdps(DEFAULT_DPS):
        k = kappa.value()
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        return 2 * k * pm * (t * t * pm + k) / to_mpf(gap)


class WidthBound(NamedTuple):
    width: int      # guaranteed-sufficient register width
    raw: mp.mpf     # the real-valued bound log2(m/R + 1/p_min)


def _parse_target(target_r) -> mp.mpf:
    """The target redundancy R as an mpf, parsed at DEFAULT_DPS digits.

    An mpf is taken as it is, at its own precision.  Raises InvalidArgument
    when R is not a number, NonPositiveTarget unless 0 < R < inf.
    """
    try:
        r = target_r if isinstance(target_r, mp.mpf) else to_mpf(target_r)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidArgument(
            f"target redundancy {target_r!r} is not a number") from None
    if not (r > 0 and mp.isfinite(r)):
        raise NonPositiveTarget(
            f"target redundancy must be finite and > 0, got {target_r}")
    return r


def corollary1_width(m: int, target_r, p_min: Fraction) -> WidthBound:
    """Register width sufficient for target redundancy R (nats), any source.

    The raw bound is log2(m/R + 1/p_min); any width strictly below it is
    achievable, so the returned integer is the largest one below the raw
    value (clamped to >= 1 for degenerate targets).
    """
    r = _parse_target(target_r)
    p_min = Fraction(p_min)
    with mp.workdps(DEFAULT_DPS):
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        raw = mp.log(m / r + 1 / pm) / mp.log(2)
        fl = mp.floor(raw)
        width = int(fl) - 1 if fl == raw else int(fl)
        return WidthBound(max(width, 1), raw)


def corollary2_width(m: int, target_r, p_min: Fraction,
                     kappa: Kappa | None = None) -> mp.mpf:
    """Existence width bound for record denominators (real-valued, not a
    guarantee for any specific t).

    m > 2: (m/(m+1)) * log2(m/R + 1/p_min) + 1, no kappa.
    m = 2: (1/2) * log2(2/R + 1/p_min) + (1/2) * log2(4 kappa).
    """
    r = _parse_target(target_r)
    if m == 2 and kappa is None:
        raise KappaMissing("binary width bound needs an explicit kappa")
    if m > 2 and kappa is not None:
        raise InvalidArgument("kappa only applies to binary sources")
    p_min = Fraction(p_min)
    with mp.workdps(DEFAULT_DPS):
        pm = mp.mpf(p_min.numerator) / p_min.denominator
        log2 = mp.log(2)
        if m > 2:
            return (mp.mpf(m) / (m + 1)) * mp.log(m / r + 1 / pm) / log2 + 1
        k = kappa.value()
        return (mp.log(2 / r + 1 / pm) / log2 + mp.log(4 * k) / log2) / 2


def second_order_width(p: ProbabilityVector, target_r) -> int:
    """The smallest width W >= register_width(m) with 2**W * p_min > 1 and
    2**(-2W) * sum_i 1/(p_i - 2**-W) <= R, the target in nats.

    best_table_under_width(p, W) then has divergence at most R.  At
    t = 2**W, round_min_max has delta_star < 2**-W once t * p_min >= 1 (see
    its docstring), and the best table under that width can only have a
    smaller delta_star.  Its q_i = f_i/t are at least p_i - delta_star > 0,
    so by Jensen D(p || q) <= ln(1 + chi2) <= chi2 = sum_i (p_i - q_i)**2
    / q_i <= delta_star**2 * sum_i 1/(p_i - delta_star), which increases
    with delta_star, so it is below the sum above.  Unlike corollary 1's
    first order m * delta_star / (1 - delta_star/p_min), the bound is
    second order in delta_star, which about halves the width.

    Both conditions only get easier as W grows.  A float estimate seeds W,
    and _second_order_holds moves it to the smallest W it holds at, so it
    confirms the answer exactly at W and at W - 1.  An mpf target is taken
    exactly, anything else is parsed as corollary1_width parses it.
    """
    r = _parse_target(target_r)
    man, exp = r.man_exp                    # R = man * 2**exp, exactly
    nums, d = p.numerators, p.common_denominator
    # sum_i 1/(p_i - 2**-W) > sum_i 1/p_i = S, so 4**W > S/R: seed W there,
    # log2(S) in floats scaled by the largest 1/p_i, exp // 2 as an integer
    logs = [math.log2(d) - math.log2(v) for v in nums]
    top = max(logs)
    log_s = top + math.log2(math.fsum(2.0 ** (x - top) for x in logs))
    lo = max(register_width(p.m), (d // min(nums)).bit_length())
    w = max(lo, math.ceil((log_s - math.log2(man) - exp % 2) / 2) - exp // 2)
    while w > lo and _second_order_holds(nums, d, w - 1, man, exp):
        w -= 1
    while not _second_order_holds(nums, d, w, man, exp):
        w += 1
    return w


def _second_order_holds(nums, d: int, w: int, man: int, exp: int) -> bool:
    """2**(-2w) * sum_i 1/(p_i - 2**-w) <= man * 2**exp, exactly, for
    p_i = nums[i]/d with 2**w * p_min > 1, on integers whose size m, d and
    man bound, whatever w and exp are.

    With s = 2**w and T = R * s**2 the test reads sum_i y_i <= T, y_i =
    d*s/(nums[i]*s - d).  Fixed point with 64 fraction bits brackets
    2**64 * sum_i y_i in [lo, lo + m); the target 2**64 * T decides the
    test unless it falls inside, and then Fractions do.  Past w = bl(m) +
    (m + 2)*bl(d) + bl(man) (bl: bit length), s > 2*m*d**(m+2)*man is not
    built: sum_i y_i - S, S = sum_i 1/p_i >= 4, lies in (0, 2*m*d**2/s],
    below 1/(q * 2**j) for q the denominator of S (it divides
    prod_i nums[i] < d**m) and 2**j that of any T > S (2**j < man).  A
    positive T - S is at least that, so there the test is T > S.
    """
    m = len(nums)
    if w > m.bit_length() + (m + 2) * d.bit_length() + man.bit_length():
        big_s = sum(Fraction(d, v) for v in nums)
        return _scaled_gt(man * big_s.denominator, exp + 2 * w, big_s.numerator)
    s = 1 << w
    lo = sum((d * s << 64) // (v * s - d) for v in nums)
    shift = exp + 2 * w + 64
    if not _scaled_gt(lo + m, -shift, man):
        return True
    if _scaled_gt(lo, -shift, man):
        return False
    total = sum(Fraction(d * s, v * s - d) for v in nums)
    return total <= Fraction(man) * Fraction(2) ** (exp + 2 * w)


def _scaled_gt(a: int, shift: int, b: int) -> bool:
    """a * 2**shift > b for a, b >= 1; unequal bit lengths decide it unshifted."""
    gap = a.bit_length() + shift - b.bit_length()
    return gap > 0 if gap else a << shift > b if shift >= 0 else a > b << -shift


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

    def human_text(self) -> str:
        def fmt(v):
            return "n/a" if v is None else format_decimal(v, 12)

        flags = ", ".join(f"{k}={'yes' if v else 'no'}"
                          for k, v in self.applicable.items())
        lines = [
            f"alphabet m = {self.m}, denominator t = {self.t}, "
            f"register width W = {register_width(self.t)}",
            f"delta_star = {format_exact(self.delta_star, 12, '{x} ({dec})')}, "
            f"delta_star/p_min = {format_decimal(self.ratio, 12)}",
            f"divergence: {format_decimal(self.divergence_nats, 12)} nats/sym = "
            f"{format_decimal(self.divergence_bits, 12)} bits/sym",
            f"error bound (nats):        {fmt(self.lemma1)}",
            f"rounding bound (nats):     {fmt(self.theorem1)}",
            f"record bound (nats):       {fmt(self.theorem2)}"
            + (f"  [kappa = {self.kappa.label}]" if self.kappa else ""),
            f"applicable: {flags}",
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
                       kappa: Kappa | None = None) -> BoundReport:
    """Evaluate the divergence and every bound whose premise holds."""
    prof = error_profile(p, table)
    ds, pm, m, t = prof.delta_star, p.p_min, p.m, table.t
    div = kl_divergence(p, table)

    def bound_or_none(bound, *args):
        try:
            return bound(*args)
        except (RatioNotLessThanOne, PreconditionViolated):
            return None

    lemma1 = bound_or_none(lemma1_bound, m, ds, pm)
    theorem1 = bound_or_none(theorem1_bound, m, t, pm)
    used_kappa = None
    if m == 2:
        used_kappa = kappa or KAPPA_GENERIC
        sq = used_kappa.square
        theorem2 = bound_or_none(theorem2_bound_binary, t, pm, used_kappa)
        qual2 = ((ds.numerator * t * t) ** 2 * sq.denominator
                 <= ds.denominator**2 * sq.numerator)  # delta_star <= kappa/t**2
    else:
        theorem2 = bound_or_none(theorem2_bound_mary, m, t, pm)
        qual2 = ds.numerator**m * t ** (m + 1) <= ds.denominator**m
    applicable = {
        "lemma1": lemma1 is not None,
        # delta_star <= 1/(2t), exact
        "theorem1": theorem1 is not None and 2 * t * ds <= 1,
        "theorem2": theorem2 is not None and qual2,
    }

    return BoundReport(m, t, ds, prof.ratio, div.nats, div.bits,
                       lemma1, theorem1, theorem2, used_kappa, applicable)


# ---- precision planner --------------------------------------------------------

def _width_cap(m: int, w1: int, w2: int) -> int:
    """The widest W a plan of an m-symbol source may take: the smaller of
    the second-order width w2 and the corollary-1 width w1, the latter
    raised to register_width(m), since corollary 1 clamps to >= 1, which
    can dip below the smallest width able to hold m symbols at all."""
    return min(max(w1, register_width(m)), w2)


@dataclass(frozen=True)
class PrecisionPlan:
    """A verified (W, t, table) choice for a target redundancy; t, the
    width W and the memory cost m * W are derived from the table."""

    target_r: mp.mpf
    width_bits: int = field(init=False)
    t: int = field(init=False)
    table: FrequencyTable
    verified_divergence: mp.mpf     # nats, kl_divergence of the table
    corollary1_width: int
    raw_width_bound: mp.mpf
    second_order_width: int
    memory_bits: int = field(init=False)
    mode: str

    def __post_init__(self):
        m, width = self.table.m, self.table.width_bits
        object.__setattr__(self, "width_bits", width)
        object.__setattr__(self, "t", self.table.t)
        object.__setattr__(self, "memory_bits", memory_cost(m, width))
        if not self.verified_divergence <= self.target_r:
            raise InvalidArgument("plan verification failed: divergence above target")
        if width > _width_cap(m, self.corollary1_width, self.second_order_width):
            raise InvalidArgument("plan width exceeds the width the planner searches under")

    def eta(self) -> mp.mpf | None:
        """Achieved width per log2(m/R): the implementation-quality ratio.
        None for R >= m, where log2(m/R) <= 0 and the ratio means nothing."""
        m = self.table.m
        if not self.target_r < m:
            return None
        with mp.workdps(DEFAULT_DPS):
            return self.width_bits / (mp.log(m / self.target_r) / mp.log(2))

    def human_text(self) -> str:
        eta = self.eta()
        return "\n".join([
            f"mode: {self.mode}",
            f"target redundancy: {format_decimal(self.target_r, 12)} nats/sym",
            f"chosen t = {self.t}, W = {self.width_bits} bits, "
            f"memory = {self.memory_bits} bits",
            f"verified divergence: "
            f"{format_decimal(self.verified_divergence, 12)} nats/sym",
            f"guaranteed-sufficient width: {self.corollary1_width} "
            f"(raw bound {format_decimal(self.raw_width_bound, 12)})",
            f"second-order width: {self.second_order_width}",
            "eta = W / log2(m/R) = "
            + ("n/a" if eta is None else format_decimal(eta, 12)),
        ])

    CSV_HEADER = ("mode,target_r_nats,t,width_bits,memory_bits,"
                  "verified_divergence_nats,corollary1_width,raw_width_bound,eta")

    def csv_row(self) -> str:
        eta = self.eta()
        return ",".join([
            self.mode, format_decimal(self.target_r, 12), str(self.t),
            str(self.width_bits), str(self.memory_bits),
            format_decimal(self.verified_divergence, 12),
            str(self.corollary1_width), format_decimal(self.raw_width_bound, 12),
            "" if eta is None else format_decimal(eta, 12),
        ])


# The search stops at its first success, often at a small t, so its first
# chunk is 256 rows rather than the fold's 4,096; later ones double
# (approx._spans).
_SEARCH_FIRST_CHUNK = 256


def _first_qualifying_t(p: ProbabilityVector, r: mp.mpf, t_cap: int):
    """(table, D) of the smallest t in [m, t_cap] with kl_divergence <= r, or None.

    A float64 estimate screens each row.  Since sum_i p_i = 1,
    D = c + ln t - sum_i p_i ln f_i with c = sum_i p_i ln p_i.  With
    u = 2**-53, H = -c <= ln m, and t and every f_i <= t exact below 2**53:
    each p_i rounds once (relative u, moving ln p_i by under 2u); each
    np.log is within 4 ulp (relative 8u); an m-term dot product errs by at
    most (m + 1)*u times the sum of its |terms|, H for c and
    sum_i p_i ln f_i <= ln t for the other; and the last two additions err
    by u*(H + ln t) and u*|estimate|.  So the estimate is within
    u*((m + 11)*H + (m + 19)*ln t + 2 + |estimate|) of D.  kl_divergence
    is within 1e-13 * D of D (see _kl_dps), so a row it accepts has
    D <= r / (1 - 1e-13) < r * (1 + 2**-42), and an estimate below
        r * (1 + 2**-40) + (m + 20)*u*(ln m + ln t_cap + 2 + r),
    whose spare terms also cover |estimate| and the rounding of r and of
    the screen itself.  That argument needs each float(p_i) within a
    relative u of p_i, which fails where float(p_i) is 0 or subnormal,
    below 2**-1022.  So c is summed over the nonzero floats only, and each
    such tiny p_i widens the screen by 2**-1000: p_i and its float are both
    at most 2**-1022 (rounding is monotone), where x*|ln x| < 2**-1012, so
    their c terms differ by under 2**-1011; |p_i - float(p_i)| * ln f_i <=
    2**-1075 * 24 ln 2, as t_cap <= 2**24; and each product of such a
    float rounds by under 2**-1064.  Each moves the estimate by under
    2**-1010.

    The absolute part is about 5e-14 at t_cap = 2**24, so for a far
    smaller r nearly every row would pass.  A second screen therefore drops
    a passing row whose Pinsker bound D >= 2 * delta_star**2 (see _kl_dps)
    exceeds r * (1 + 2**-42), above every accepted D.  The float of each
    |p_i - f_i/t| is within 3.01u of it (three roundings of terms at most
    1), so max_i of those floats minus 2**-49 bounds delta_star from below
    after its own rounding, and 2 * (1 - 2**-50) times its square, two more
    roundings, stays at most 2 * delta_star**2.  The float of
    r * (1 + 2**-40), two roundings, and at least 2**-1000 so that a
    product that rounds in the subnormal range never exceeds it, is at
    least r * (1 + 2**-42).
    Each passing row is decided by kl_divergence, in ascending t, so the
    first accepted t is the answer; its table and divergence are the plan's.
    """
    pf = np.array([float(x) for x in p.probs])
    pos = pf[pf > 0]
    c = float(np.dot(pos, np.log(pos)))
    r_wide = float(r) * (1 + 2.0**-40)
    log_sum = math.log(p.m) + math.log(t_cap) + 2 + float(r)
    tiny = np.count_nonzero(pf < 2.0**-1022)    # 0 or subnormal
    screen = r_wide + (p.m + 20) * 2.0**-53 * log_sum + tiny * 2.0**-1000
    pinsker = max(r_wide, 2.0**-1000)
    for chunk in _chunks(p, t_cap, _SEARCH_FIRST_CHUNK):
        f_arr, t_f = chunk.tables, chunk.ts.astype(np.float64)
        f_f = np.asarray(f_arr, dtype=np.float64)
        d_float = c + np.log(t_f) - np.log(f_f) @ pf
        cand = np.flatnonzero(~(d_float > screen))
        if cand.size:
            dev = np.abs(f_f[cand] / t_f[cand, None] - pf).max(axis=1) - 2.0**-49
            dev = np.maximum(dev, 0.0)
            cand = cand[~(2 * (1 - 2.0**-50) * dev * dev > pinsker)]
        for j in cand:
            table = FrequencyTable.from_freqs(p, f_arr[j])
            nats = kl_divergence(p, table).nats
            if nats <= r:
                return table, nats
    return None


def _inexact_rows_miss(p: ProbabilityVector, r: mp.mpf, cap_bits: int) -> bool:
    """True when every table with t <= 2**cap_bits and D > 0 misses r.

    Then only D = 0 meets r, first at t = d: t*p_i is an integer for every
    i only when d divides t.  Such a D is at least L, the larger of
    Pinsker's 2 * delta_star**2 >= 2/(d * 2**cap_bits)**2 (see _kl_dps)
    and, when p_min < 2**-cap_bits, K = kl2(p_min || 2**-cap_bits): every
    q_i = f_i/t is then >= 2**-cap_bits, merging every symbol but i into
    one can only lower D (data processing), and kl2(p_i || x) increases in
    x >= p_i.  K is the divergence of the pair (p_min, 1 - p_min) from the
    table (1, 2**cap_bits - 1), which kl_divergence gives within 1e-13 * K
    (see _kl_dps); the Pinsker part is taken at DEFAULT_DPS digits.  Each
    row's kl_divergence is within 1e-13 of its D, relative, so it exceeds
    r once L * (1 - 2**-40) > r, whose spare covers the test's own
    rounding.
    """
    t = 1 << cap_bits
    with mp.workdps(DEFAULT_DPS):
        bound = mp.mpf(2) / (p.common_denominator * t) ** 2
        if p.p_min * t < 1:
            pair = ProbabilityVector([p.p_min, 1 - p.p_min])
            bound = max(bound, kl_divergence(
                pair, FrequencyTable.from_freqs(pair, (1, t - 1))).nats)
        return bound * (1 - mp.mpf(2) ** -40) > r


def plan_precision(p: ProbabilityVector, target_r,
                   mode: str = "guaranteed") -> PrecisionPlan:
    """Choose (W, t, table) achieving divergence <= target_r nats.

    Both modes search t <= 2**W for one width cap W (_width_cap), the cap
    PrecisionPlan checks the plan's width against.
    guaranteed: a W above the coder's 24 bits raises
    TargetUnachievableWithinScan at once, before any scan.  Otherwise take
    the delta_star-minimizing table within W; should it miss the target,
    fall back to the smallest t <= 2**W whose divergence meets it, which
    exists exactly when the minimum divergence over t <= 2**W does.
    opportunistic: return the first t <= 2**min(W, 24) whose exact
    divergence meets the target; its width is typically near the record
    (corollary-2) bound for favorable sources.  A search past 2**W could
    only find a plan PrecisionPlan refuses, or none: the best table under
    2**second_order_width meets the target.

    Both modes decide the target with kl_divergence, the same sum the plan
    verifies, at the digits it picks for each table (_kl_dps).  In either
    mode, a target that every D > 0 up to the cap misses
    (_inexact_rows_miss) is decided without a scan: t = d, or
    TargetUnachievableWithinScan when d is above the cap.
    """
    if mode not in ("guaranteed", "opportunistic"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    r = _parse_target(target_r)
    w1, raw = corollary1_width(p.m, r, p.p_min)
    w2 = second_order_width(p, r)
    cap_bits = _width_cap(p.m, w1, w2)
    verified = None
    if mode == "guaranteed":
        if cap_bits > _MAX_BITS:
            raise TargetUnachievableWithinScan(
                f"a guaranteed plan needs W = {cap_bits} bits, more than the "
                f"coder's {_MAX_BITS}; try --mode opportunistic"
            )
        table = best_table_under_width(p, cap_bits)
        verified = kl_divergence(p, table).nats
    else:
        cap_bits = min(cap_bits, _MAX_BITS)
    if verified is None or not verified <= r:
        found = None
        if not _inexact_rows_miss(p, r, cap_bits):
            found = _first_qualifying_t(p, r, 1 << cap_bits)
        elif p.common_denominator <= 1 << cap_bits:
            table = round_min_max(p, p.common_denominator)  # the first with D = 0
            found = table, kl_divergence(p, table).nats
        if found is None:
            raise TargetUnachievableWithinScan(
                f"no denominator up to 2**{cap_bits} reaches "
                f"{format_decimal(r, 8)} nats"
            )
        table, verified = found

    return PrecisionPlan(r, table, verified, w1, raw, w2, mode)
