"""Decimal helpers.

All "high-precision real" values in this package are mpmath floats.  Their
digit counts are derived from the inputs, with DEFAULT_DPS (50) as the
floor; each divergence is evaluated at the digits ``bounds._kl_dps``
derives from its size.
Exact quantities (probabilities, per-symbol errors) never pass through
floats at all -- they stay `fractions.Fraction`, and their decimals are
rounded exactly in Python integers: a ratio by :func:`decimal_ratio` with
one division, an m-th root by :func:`decimal_root`, the one exact root.
`scan` writes two decimals per row through :func:`scan_formatter`, whose
per-scan state (powers of ten, the root's constants) lives only as long as
the scan.  Its qualities t**(1/m) * A/d come from a fixed-point root of t
with a proven error bound (Ziv's rounding test): a row goes to
decimal_root only where that bound cannot decide its digits.  Floats only
guess exponents and seed the root; no decimal depends on their accuracy.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

DEFAULT_DPS = 50
SURROGATE_DIGITS = 60
_LOG_MARGIN = 1e-9      # exponent guesses sit this far below a float log10
_ROOT_BITS = 136        # fraction bits W of scan_formatter's root of t
_ROOT_ERR = 132         # its qualities are certified to 2**-132 relative

def to_mpf(x, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Coerce int/str/Fraction/float/mpf to mpf at dps decimal digits.

    Strings and Fractions convert exactly before the single final rounding;
    floats are taken at face value.
    """
    with mp.workdps(dps):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / mp.mpf(x.denominator)
        return mp.mpf(x)


def _layout(y: int, exponent: int, sig: int) -> str:
    """mpmath.nstr(x, sig, strip_zeros=False) for the x > 0 whose sig + 1
    leading digits are y (10**sig <= y < 10**(sig+1)), the leading one of
    decimal exponent `exponent`: the last digit of y rounds the others half
    up, (y + 5) // 10.

    Fixed notation while min(-(sig // 3), -5) < exponent < sig (-10 and 30
    for sig = 30), otherwise d.ddd...e+k / d.ddd...e-k.
    """
    s = str((y + 5) // 10)
    if len(s) > sig:    # carry: 9.99...95 -> 1.00...0 one decade up
        s, exponent = s[:sig], exponent + 1
    if min(-(sig // 3), -5) < exponent < sig:
        if exponent < 0:
            return "0." + "0" * (-exponent - 1) + s
        return s[:exponent + 1] + "." + s[exponent + 1:]
    return f"{s[0]}.{s[1:]}e{exponent:+d}"


def _powers(sig: int) -> dict:
    """The powers of ten every rounding to sig digits needs, keyed by k;
    _ratio and the scan's quality add the others they take."""
    return {sig: 10**sig, sig + 1: 10 ** (sig + 1)}


def _ratio(n: int, q: int, e: int, sig: int, pow10: dict) -> str:
    """n/q > 0 rounded half up to sig digits and laid out by _layout, from a
    guess e of its decimal exponent; pow10 is a _powers(sig) dict.

    One division while e is at most the exponent: floor(n * 10**(sig-e) / q)
    then has sig + 1 digits or more, and as floor(floor(z) / 10) =
    floor(z / 10) the extra ones are shed exactly.  A guess above the
    exponent costs one more division per decade.  Callers guess with
    floor(log10 - _LOG_MARGIN), so only a float log10 wrong by more than
    _LOG_MARGIN costs that.
    """
    while True:
        k = sig - e
        if k >= 0:
            y = n * (pow10.get(k) or pow10.setdefault(k, 10**k)) // q
        else:
            y = n // (q * 10**-k)
        if y >= pow10[sig]:
            break
        e -= 1
    hi = pow10[sig + 1]
    while y >= hi:
        y //= 10
        e += 1
    return _layout(y, e, sig)


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
    """(n/q)**(1/m) for n >= 0, q > 0, m >= 2, rounded half up to sig
    significant digits and laid out like mpmath.nstr(x, sig,
    strip_zeros=False); exact, in Python integers.

    With e the decimal exponent of the result, its sig + 1 leading digits
    are y = floor(floor(n * 10**((sig - e)*m) / q) ** (1/m)), the root
    taken by :func:`_iroot_floor`, then rounded by _layout.
    """
    if n == 0:
        return "0.0"
    lv = (math.log10(n) - math.log10(q)) / m
    e = math.floor(lv)  # may be off by one
    while True:
        k = (sig - e) * m
        y = _iroot_floor(n * 10**k // q if k >= 0 else n // (q * 10**-k), m)
        if y >= 10 ** (sig + 1):
            e += 1
        elif y < 10**sig:
            e -= 1
        else:
            break
    return _layout(y, e, sig)


def decimal_ratio(n: int, q: int, sig: int = 30) -> str:
    """n/q (q > 0) rounded half up to sig significant digits, laid out like
    mpmath.nstr(n/q, sig, strip_zeros=False); exact, in Python integers, by
    one _ratio division."""
    if n < 0:
        return "-" + decimal_ratio(-n, q, sig)
    if n == 0:
        return "0.0"
    e = math.floor(math.log10(n) - math.log10(q) - _LOG_MARGIN)
    return _ratio(n, q, e, sig, _powers(sig))


def scan_formatter(d: int, m: int, sig: int = 30):
    """The decimals of one `scan` of a source with m symbols and common
    denominator d: a function of (t, A) returning the pair (delta_star,
    quality), byte for byte decimal_ratio(A, d*t, sig) and, for m = 2,
    decimal_ratio(t*A, d, sig), otherwise decimal_root(t * A**m, d**m, m,
    sig).  Its powers of ten are kept while the function lives.

    Ratios are one _ratio division each.  An m > 2 quality
    Q = r * A/d, r = t**(1/m), is rounded from a fixed-point root r~ of t:

    - The float seed s = t**(1/m) is exactly num / 2**f.  With
      u = t / s**m - 1 = (t * 2**(f*m) - num**m) / num**m,
      r = s * (1+u)**(1/m), and
      (1+u)**(1/m) = 1 + u/m - (m-1) u**2 / (2 m**2) + theta,
      with the Taylor remainder |theta| <= |u|**3 / (2m) for |u| <= 1/8.
    - With W = _ROOT_BITS, U = floor(u * 2**W) and
      c = 2**W + floor(U/m) - floor((m-1) U**2 / 2**W / (2 m**2)),
      |c - 2**W (1+u)**(1/m)| < (1 + 1/m) + (1 + 2**-40) + 2**W |theta|:
      the first floor and U's own, then the second floor and U**2 against
      (u 2**W)**2.  A row is taken only when |U| <= u_max, the largest U
      with (U + 1)**3 <= m * 2**(3W - 133); then 2**W |theta| < 2**(W - 134)
      = 4, and r~ = num * c / 2**(f + W) is within rho < 6.6 * 2**-W
      < 2**-133 of r, relatively.
    - From a guess e of Q's exponent, x = Q * 10**(sig - e) is X / D up to
      rho, with X = num * c * A * 10**(sig - e) and D = d * 2**(f + W) (a
      negative power of ten goes into D).  So |X - x D| <= rho/(1 - rho) X
      < err = (X >> _ROOT_ERR) + 1, and y = X // D is floor(x) whenever
      err <= X % D < D - err: _layout rounds it as decimal_root rounds its
      own floor(x).

    Every other row goes to decimal_root: x within err/D (about 2**-30) of
    an integer, a seed too far off, or a guess above the exponent.  An
    integer x (a perfect power t = j**m with a terminating quality, exact
    ties included) is always among them, as X % D < err or X % D > D - err
    there.
    """
    pow10 = _powers(sig)
    lo, hi = pow10[sig], pow10[sig + 1]
    log_d = math.log10(d) + _LOG_MARGIN

    if m == 2:
        def row(t, a):
            if not a:
                return "0.0", "0.0"
            la, lt = math.log10(a) - log_d, math.log10(t)
            return (_ratio(a, d * t, math.floor(la - lt), sig, pow10),
                    _ratio(t * a, d, math.floor(la + lt), sig, pow10))
        return row

    w = _ROOT_BITS
    u_max = _iroot_floor(m << (3 * w - 133), 3) - 1
    c2 = 2 * m * m
    inv_m = 1 / m

    def quality(t, a, la):
        s = t ** inv_m
        num, two_f = s.as_integer_ratio()
        f = two_f.bit_length() - 1
        v = num**m
        u = (((t << f * m) - v) << w) // v
        if -u_max <= u <= u_max:
            c = (1 << w) + u // m - ((m - 1) * u * u >> w) // c2
            e = math.floor(la + math.log10(s))
            k = sig - e
            x, den = num * c * a, d << (f + w)
            if k >= 0:
                x *= pow10.get(k) or pow10.setdefault(k, 10**k)
            else:
                den *= 10**-k
            y, rem = divmod(x, den)
            err = (x >> _ROOT_ERR) + 1
            if y >= lo and err <= rem < den - err:
                while y >= hi:
                    y //= 10
                    e += 1
                return _layout(y, e, sig)
        return decimal_root(t * a**m, d**m, m, sig)

    def row(t, a):
        if not a:
            return "0.0", "0.0"
        la = math.log10(a) - log_d
        return (_ratio(a, d * t, math.floor(la - math.log10(t)), sig, pow10),
                quality(t, a, la))
    return row


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
