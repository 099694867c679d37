"""Exact source distributions and quantized frequency tables.

A source over symbols a_0..a_{m-1} is an exact rational probability vector
(p_0, ..., p_{m-1}), sum exactly 1.  A quantized model replaces it with
p_hat_i = f_i / t where the f_i are positive integers and t = sum f_i.  The
per-symbol signed errors d_i = p_i - f_i/t, their maximum magnitude
delta_star, and the register width W = ceil(log2 t) are the quantities the
rest of the package reasons about.

Everything here is exact: probabilities parse to `fractions.Fraction`
("0.7" becomes 7/10), errors are rational, and the width is computed by
integer bit length.  Irrational example sources (the golden-ratio conjugate
and friends) are represented by 60-digit rational surrogates, precise enough
that any denominator scan up to ~10**29 behaves identically to the true
irrational.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from .errors import (
    AlphabetTooSmall,
    DimensionMismatch,
    InvalidArgument,
    NonPositiveProbability,
    SumOutOfTolerance,
    ZeroFrequency,
)
from .precision import SURROGATE_DIGITS, format_decimal

PARSE_TOLERANCE = Fraction(1, 10**9)
MAX_TOTAL = 1 << 24  # the largest table total t the range coder takes


def register_width(t: int) -> int:
    """W = ceil(log2 t) via integer bit length.

    For t >= 2 this is the unique W with 2**(W-1) < t <= 2**W.
    """
    if t < 2:
        raise InvalidArgument(f"register width needs t >= 2, got {t}")
    return (t - 1).bit_length()


def memory_cost(m: int, width_bits: int) -> int:
    """Total table storage in bits: one width_bits register per symbol."""
    return m * width_bits


@dataclass(frozen=True)
class ProbabilityVector:
    """An exact source distribution: every entry positive, sum exactly 1."""

    probs: tuple[Fraction, ...]
    p_min: Fraction

    def __init__(self, probs):
        probs = tuple(Fraction(x) for x in probs)
        if len(probs) < 2:
            raise AlphabetTooSmall(f"need at least 2 symbols, got {len(probs)}")
        for i, x in enumerate(probs):
            if x <= 0:
                raise NonPositiveProbability(f"p[{i}] = {x} is not positive")
        if sum(probs) != 1:
            raise SumOutOfTolerance(
                f"probabilities must sum exactly to 1, got {sum(probs)}"
            )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "p_min", min(probs))

    @property
    def m(self) -> int:
        return len(self.probs)

    @cached_property
    def common_denominator(self) -> int:
        """Least common denominator d with p_i = numerators[i] / d."""
        return lcm(*(x.denominator for x in self.probs))

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        d = self.common_denominator
        return tuple(x.numerator * (d // x.denominator) for x in self.probs)


def parse_probability_vector(spec) -> ProbabilityVector:
    """Parse decimal or fraction strings into an exact ProbabilityVector.

    Accepts e.g. ["0.5", "0.5"] or ["7/10", "2/10", "1/10"].  Each entry must
    be an exact rational strictly inside (0, 1).  If the raw sum differs from
    1 by less than 1e-9 the entries are renormalized proportionally (exact
    rational division); a larger discrepancy is an error.
    """
    if isinstance(spec, str):
        spec = [s for s in re.split(r"[,\s]+", spec.strip()) if s]
    if len(spec) < 2:
        raise AlphabetTooSmall(f"need at least 2 probabilities, got {len(spec)}")
    values = []
    for i, tok in enumerate(spec):
        if isinstance(tok, Fraction):
            x = tok
        else:
            try:
                x = Fraction(str(tok).strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise NonPositiveProbability(f"cannot parse p[{i}] = {tok!r}: {exc}")
        if not 0 < x < 1:
            raise NonPositiveProbability(
                f"p[{i}] = {tok} must lie strictly inside (0, 1)"
            )
        values.append(x)
    total = sum(values)
    if total != 1:
        if abs(total - 1) >= PARSE_TOLERANCE:
            raise SumOutOfTolerance(
                f"probabilities sum to {float(total):.12g}; "
                f"|sum - 1| must be below 1e-9"
            )
        values = [x / total for x in values]
    return ProbabilityVector(values)


def canonical_order(p: ProbabilityVector) -> tuple[int, ...]:
    """Symbol indices sorted by ascending probability, ties by ascending index."""
    return tuple(sorted(range(p.m), key=lambda i: (p.probs[i], i)))


def _three_ints(line: str, what: str) -> list[int]:
    """The three integer fields of a table-file line."""
    parts = line.split()
    try:
        if len(parts) == 3:
            return [int(x) for x in parts]
    except ValueError:
        pass
    raise InvalidArgument(f"bad table {what}: {line!r}")


@dataclass(frozen=True)
class FrequencyTable:
    """Integer frequencies f_i with denominator t = sum f_i.

    Built from `freqs`, indexed by symbol, and `order`, the canonical
    permutation (ascending source probability, ties by symbol index); the
    rest is derived from those two.  `cum` holds the interval low ends by
    canonical position, so symbol order[k] owns the integer interval
    [cum[k], cum[k] + freqs[order[k]]) out of t.  The last interval ends
    exactly at t.  `width_bits` = ceil(log2 t) is the register width needed
    to store any f_i or cumulative sum.
    """

    freqs: tuple[int, ...]
    t: int = field(init=False)
    order: tuple[int, ...]
    cum: tuple[int, ...] = field(init=False)
    width_bits: int = field(init=False)

    def __post_init__(self):
        m = len(self.freqs)
        if m < 2:
            raise AlphabetTooSmall(f"need at least 2 symbols, got {m}")
        for i, f in enumerate(self.freqs):
            if f < 1:
                raise ZeroFrequency(f"f[{i}] = {f}; every frequency must be >= 1")
        if sorted(self.order) != list(range(m)):
            raise InvalidArgument("order is not a permutation of the symbols")
        cum, t = [], 0
        for sym in self.order:
            cum.append(t)
            t += self.freqs[sym]
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "cum", tuple(cum))
        object.__setattr__(self, "width_bits", register_width(t))

    @classmethod
    def from_freqs(cls, p: ProbabilityVector, freqs) -> "FrequencyTable":
        """Build a table for source p, deriving the canonical order from p."""
        freqs = tuple(int(f) for f in freqs)
        if len(freqs) != p.m:
            raise DimensionMismatch(f"{len(freqs)} freqs for {p.m} symbols")
        return cls(freqs, canonical_order(p))

    @property
    def m(self) -> int:
        return len(self.freqs)

    def inclusive_sums(self) -> tuple[int, ...]:
        """Cumulative sums s_1..s_m in canonical order; strictly increasing, ends at t."""
        return tuple(c + self.freqs[sym] for c, sym in zip(self.cum, self.order))

    @cached_property
    def position_of_symbol(self) -> tuple[int, ...]:
        """Inverse of `order`: canonical position of each symbol index."""
        pos = [0] * self.m
        for k, sym in enumerate(self.order):
            pos[sym] = k
        return tuple(pos)

    # ---- text serialization -------------------------------------------------

    def serialize_text(self, delta_star: Fraction | None = None) -> str:
        """Line-oriented text form: header `m t W`, then `symbol f s` per line.

        Lines appear in canonical order with s the inclusive cumulative sum.
        When the maximum error of the source this table was built for is
        known, it is recorded on a comment line as an exact fraction plus a
        30-significant-digit decimal (an exact finite decimal only exists
        when the denominator divides a power of ten).
        """
        lines = ["# quantacode frequency table"]
        if delta_star is not None:
            dec = format_decimal(delta_star, 30)
            lines.append(
                f"# delta_star {delta_star.numerator}/{delta_star.denominator} {dec}"
            )
        lines.append(f"{self.m} {self.t} {self.width_bits}")
        for sym, s in zip(self.order, self.inclusive_sums()):
            lines.append(f"{sym} {self.freqs[sym]} {s}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse_text(cls, text: str) -> "FrequencyTable":
        """Inverse of serialize_text; comments are ignored."""
        rows = [ln.strip() for ln in text.splitlines()
                if ln.strip() and not ln.lstrip().startswith("#")]
        if not rows:
            raise InvalidArgument("empty table file")
        m, t, width = _three_ints(rows[0], "header")
        if len(rows) != m + 1:
            raise InvalidArgument(f"expected {m} symbol lines, found {len(rows) - 1}")
        order, freqs, prev = [], [0] * m, 0
        for ln in rows[1:]:
            sym, f, s = _three_ints(ln, "line")
            if not 0 <= sym < m:
                raise InvalidArgument(f"symbol index {sym} out of range")
            if s - prev != f:
                raise InvalidArgument(f"cumulative sums inconsistent at symbol {sym}")
            order.append(sym)
            freqs[sym] = f
            prev = s
        if prev != t:
            raise InvalidArgument(f"cumulative sums end at {prev}, expected t = {t}")
        table = cls(tuple(freqs), tuple(order))
        if width != table.width_bits:
            raise InvalidArgument(f"header W = {width} != ceil(log2 {t})")
        return table


@dataclass(frozen=True)
class ErrorProfile:
    """Signed per-symbol errors d_i = p_i - f_i/t and their maximum magnitude."""

    deltas: tuple[Fraction, ...]
    delta_star: Fraction
    ratio: Fraction  # delta_star / p_min; bounds require ratio < 1


def error_profile(p: ProbabilityVector, table: FrequencyTable) -> ErrorProfile:
    """Exact error profile of quantizing p by table.  No rounding anywhere."""
    if table.m != p.m:
        raise DimensionMismatch(f"table has {table.m} symbols, source has {p.m}")
    deltas = tuple(p.probs[i] - Fraction(table.freqs[i], table.t)
                   for i in range(p.m))
    delta_star = max(abs(d) for d in deltas)
    return ErrorProfile(deltas, delta_star, delta_star / p.p_min)


# ---- irrational surrogates --------------------------------------------------

def _scaled_isqrt(k: int, digits: int) -> Fraction:
    """floor(sqrt(k) * 10**digits) / 10**digits, an exact rational below sqrt(k)."""
    n = 10**digits
    return Fraction(isqrt(k * n * n), n)


def golden_surrogate(digits: int = SURROGATE_DIGITS) -> Fraction:
    """Rational stand-in for (sqrt(5) - 1) / 2 accurate to `digits` digits."""
    return (_scaled_isqrt(5, digits) - 1) / 2


def silver_surrogate(digits: int = SURROGATE_DIGITS) -> Fraction:
    """Rational stand-in for sqrt(2) - 1 accurate to `digits` digits."""
    return _scaled_isqrt(2, digits) - 1


def golden_pair(digits: int = SURROGATE_DIGITS) -> ProbabilityVector:
    """Binary source (psi, 1 - psi) with psi the golden-ratio conjugate."""
    g = golden_surrogate(digits)
    return ProbabilityVector([g, 1 - g])


def silver_pair(digits: int = SURROGATE_DIGITS) -> ProbabilityVector:
    """Binary source (sqrt(2) - 1, 2 - sqrt(2))."""
    s = silver_surrogate(digits)
    return ProbabilityVector([s, 1 - s])


def irrational_triple(digits: int = SURROGATE_DIGITS) -> ProbabilityVector:
    """Ternary irrational source (sqrt(2) - 1, sqrt(3) - sqrt(2), 2 - sqrt(3)).

    The three surrogates share the denominator 10**digits and sum exactly
    to 1 by construction.
    """
    r2 = _scaled_isqrt(2, digits)
    r3 = _scaled_isqrt(3, digits)
    return ProbabilityVector([r2 - 1, r3 - r2, 2 - r3])


PRESETS = {
    "golden": golden_pair,
    "silver": silver_pair,
    "triple": irrational_triple,
}
