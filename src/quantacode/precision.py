"""Decimal helpers.

All "high-precision real" values in this package are mpmath floats.  Their
digit counts are derived from the inputs, with DEFAULT_DPS (50) as the
floor; each divergence is evaluated at the digits ``bounds._kl_dps``
derives from its size.
Exact quantities (probabilities, per-symbol errors) never pass through
floats at all -- they stay `fractions.Fraction`, and their decimals (and
the m-th roots that scan qualities need) are rounded exactly in Python
integers by :func:`decimal_ratio` and :func:`decimal_root`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

DEFAULT_DPS = 50
SURROGATE_DIGITS = 60

def to_mpf(x, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Coerce int/str/Fraction/float/mpf to mpf at dps decimal digits.

    Strings and Fractions convert exactly before the single final rounding;
    floats are taken at face value.
    """
    with mp.workdps(dps):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / mp.mpf(x.denominator)
        return mp.mpf(x)


def _layout(digits: int, exponent: int, sig: int) -> str:
    """mpmath.nstr(x, sig, strip_zeros=False) for the x > 0 whose sig digits
    are `digits` (10**(sig-1) <= digits < 10**sig) and whose leading digit
    has decimal exponent `exponent`.

    Fixed notation while min(-(sig // 3), -5) < exponent < sig (-10 and 30
    for sig = 30), otherwise d.ddd...e+k / d.ddd...e-k.
    """
    s = str(digits)
    if min(-(sig // 3), -5) < exponent < sig:
        if exponent < 0:
            return "0." + "0" * (-exponent - 1) + s
        return s[:exponent + 1] + "." + s[exponent + 1:]
    return f"{s[0]}.{s[1:]}e{exponent:+d}"


def _iroot(x: int, m: int, guess: int) -> int:
    """floor(x ** (1/m)) for x >= 1 by integer Newton from any guess >= 1.

    One step from any positive guess lands at or above the floor root
    (AM-GM), and from there each step decreases strictly until it stops
    at the floor root.
    """
    r = ((m - 1) * guess + x // guess ** (m - 1)) // m
    while True:
        s = ((m - 1) * r + x // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _iroot_floor(x: int, m: int) -> int:
    """floor(x ** (1/m)) for x >= 0, by _iroot from a float64 guess."""
    if x.bit_length() < 1000:   # float(x) is finite, and the guess cheaper
        return _iroot(x, m, int(float(x) ** (1 / m))) if x else 0
    e = math.log2(x) / m
    s = max(int(e) - 52, 0)     # keeps 2.0**(e - s) finite at any size of x
    return _iroot(x, m, int(2.0 ** (e - s)) << s)


def decimal_root(n: int, q: int, m: int, sig: int = 30) -> str:
    """(n/q)**(1/m) for n >= 0, q > 0, m >= 1, rounded half up to sig
    significant digits and laid out like mpmath.nstr(x, sig,
    strip_zeros=False); exact, in Python integers.

    With e the decimal exponent of the result, its sig + 1 leading digits
    are y = floor(floor(n * 10**((sig - e)*m) / q) ** (1/m)), the root
    taken by :func:`_iroot_floor`; then (y + 5) // 10 rounds half up.
    """
    if n == 0:
        return "0.0"
    lv = (math.log10(n) - math.log10(q)) / m
    e = math.floor(lv)  # may be off by one
    while True:
        k = (sig - e) * m
        y = n * 10**k // q if k >= 0 else n // (q * 10**-k)
        if m > 1:
            y = _iroot_floor(y, m)
        if y >= 10 ** (sig + 1):
            e += 1
        elif y < 10**sig:
            e -= 1
        else:
            break
    digits = (y + 5) // 10
    if digits == 10**sig:   # carry: 9.99...95 -> 1.00...0 one decade up
        digits, e = 10 ** (sig - 1), e + 1
    return _layout(digits, e, sig)


def decimal_ratio(n: int, q: int, sig: int = 30) -> str:
    """n/q (q > 0) rounded half up to sig significant digits, laid out like
    mpmath.nstr(n/q, sig, strip_zeros=False); exact, in Python integers."""
    if n < 0:
        return "-" + decimal_ratio(-n, q, sig)
    return decimal_root(n, q, 1, sig)


def format_decimal(x, sig: int = 30) -> str:
    """Fixed-significant-digit decimal string for CSV output.

    Exact rationals (int, Fraction) are rounded exactly by decimal_ratio;
    reals go through mpmath.nstr at max(DEFAULT_DPS, sig + 10) digits.
    """
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return decimal_ratio(x.numerator, x.denominator, sig)
    dps = max(DEFAULT_DPS, sig + 10)
    with mp.workdps(dps):
        return mp.nstr(to_mpf(x, dps), sig, strip_zeros=False)


def format_exact(x: Fraction, sig: int, layout: str) -> str:
    """`layout` filled with x's numerator n, denominator d, x and dec, its
    format_decimal to sig digits; dec alone where n or d has more digits
    than str() writes (Python's int-to-str limit, 4,300 by default)."""
    dec = format_decimal(x, sig)
    try:
        return layout.format(n=x.numerator, d=x.denominator, x=x, dec=dec)
    except ValueError:      # "Exceeds the limit ... for integer string conversion"
        return dec
