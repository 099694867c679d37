"""Exact decimal output: decimal_ratio and decimal_root against mpmath.nstr.

mpmath.nstr rounds half up from its binary value, which at 80 digits is
exact to about 10**-78 relative, so it can round an exact tie (only a
terminating decimal has one) down.  Ratios are therefore checked against
the decimal module's correctly rounded ROUND_HALF_UP quotient, and against
mpmath's string wherever mpmath has the right digits; roots of random
values have no exact ties, so mpmath's string is their reference.
"""

import math
import random
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from quantacode.precision import (
    _iroot,
    decimal_ratio,
    decimal_root,
    format_decimal,
    format_exact,
)


def nstr(x, sig=30):
    return mp.nstr(x, sig, strip_zeros=False)


def ref_ratio(n, q, sig=30):
    with mp.workdps(80):
        return nstr(mp.mpf(n) / q, sig)


def ref_root(n, q, m, sig=30):
    with mp.workdps(80):
        return nstr(mp.root(mp.mpf(n) / q, m), sig)


def check_ratio(n, q, sig=30):
    got = decimal_ratio(n, q, sig)
    want = Context(prec=sig, rounding=ROUND_HALF_UP).divide(n, q)
    assert Decimal(got) == want, (n, q, sig)
    ref = ref_ratio(n, q, sig)
    if Decimal(ref) == want:
        assert got == ref


def test_ratio_matches_mpmath_on_random_scan_values():
    rnd = random.Random(6)
    for _ in range(10_000):
        d = 10 ** rnd.randint(6, 60)
        t = rnd.randint(2, 10**7)
        a = rnd.randint(1, d)
        check_ratio(a, d * t)     # delta_star = A/(d*t)
        check_ratio(t * a, d)     # binary quality t*A/d, terminating


@pytest.mark.parametrize("m", [3, 4, 6, 24])
def test_root_matches_mpmath_on_random_scan_qualities(m):
    # the m-ary scan quality t**(1/m) * A/d = (t * A**m / d**m)**(1/m)
    rnd = random.Random(m)
    for _ in range(2_500):
        d = 10 ** rnd.randint(6, 60)
        t = rnd.randint(2, 10**7)
        a = rnd.randint(1, d)
        assert decimal_root(t * a**m, d**m, m) == ref_root(t * a**m, d**m, m)


def test_terminating_decimals():
    rnd = random.Random(7)
    for _ in range(2_000):
        n = rnd.randint(1, 10**10)
        q = 2 ** rnd.randint(0, 12) * 5 ** rnd.randint(0, 12)
        check_ratio(n, q)
        check_ratio(n, q, 12)     # ties at the 13th digit
    assert decimal_ratio(1, 8) == "0.125000000000000000000000000000"
    assert decimal_ratio(3, 1) == "3.00000000000000000000000000000"


@pytest.mark.parametrize("e, text", [
    (-9, "0.00000000150000000000000000000000000000"),
    (-10, "1.50000000000000000000000000000e-10"),
    (-11, "1.50000000000000000000000000000e-11"),
    (29, "150000000000000000000000000000."),
    (30, "1.50000000000000000000000000000e+30"),
])
def test_layout_switches_at_mpmath_exponents(e, text):
    x = Fraction(3, 2) * Fraction(10) ** e
    assert decimal_ratio(x.numerator, x.denominator) == text == ref_ratio(
        x.numerator, x.denominator)
    assert decimal_root(x.numerator**3, x.denominator**3, 3) == text


@pytest.mark.parametrize("sig", [12, 30])
def test_layout_at_every_exponent_near_the_switches(sig):
    for e in range(-15, 40):
        for mant in (Fraction(1), Fraction(123456789, 10**8), Fraction(7, 3)):
            x = mant * Fraction(10) ** e
            check_ratio(x.numerator, x.denominator, sig)


@pytest.mark.parametrize("x, sig, text", [
    # exact ties round up, carrying into a new leading digit
    (1 - Fraction(5, 10**31), 30, "1.00000000000000000000000000000"),
    (10**30 - Fraction(1, 2), 30, "1.00000000000000000000000000000e+30"),
    (10**29 - Fraction(1, 20), 30, "100000000000000000000000000000."),
    (Fraction(9_999_999_999_995, 10**12), 12, "10.0000000000"),
    (Fraction(1_234_567_890_125, 10**12), 12, "1.23456789013"),
    # just below a tie rounds down
    (Fraction(1_234_567_890_125, 10**12) - Fraction(1, 10**60), 12, "1.23456789012"),
])
def test_ties_round_half_up(x, sig, text):
    assert decimal_ratio(x.numerator, x.denominator, sig) == text


def test_zero_and_sign():
    assert decimal_ratio(0, 7) == "0.0" == nstr(mp.mpf(0))
    assert decimal_root(0, 7, 3) == "0.0"
    assert decimal_ratio(-1, 8) == "-" + decimal_ratio(1, 8) == ref_ratio(-1, 8)


def test_format_decimal_routes_rationals_exactly():
    x = Fraction(1, 3) * Fraction(10) ** -40
    assert format_decimal(x, 30) == decimal_ratio(x.numerator, x.denominator)
    assert format_decimal(7, 12) == "7.00000000000"
    with mp.workdps(50):
        assert format_decimal(mp.mpf(1) / 3, 12) == "0.333333333333"


def test_format_exact_writes_the_decimal_alone_past_the_str_limit():
    assert format_exact(Fraction(1, 7), 5, "{n}/{d} {dec}") == "1/7 0.14286"
    assert format_exact(Fraction(0), 12, "{x} ({dec})") == "0 (0.0)"
    # 10**4400 has more digits than str() of an int writes by default
    assert format_exact(Fraction(3, 10**4400), 4, "{x} ({dec})") == "3.000e-4400"
    assert format_exact(1 + Fraction(1, 10**4400), 4, "{n}/{d} {dec}") == "1.000"


def test_iroot_square_matches_isqrt():
    rnd = random.Random(8)
    for _ in range(2_000):
        x = rnd.randint(1, 10 ** rnd.randint(1, 120))
        guess = max(1, int(math.sqrt(float(x)) * rnd.uniform(0.5, 2)))
        assert _iroot(x, 2, guess) == math.isqrt(x)
        assert _iroot(x, 2, 1) == math.isqrt(x)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 24])
def test_iroot_exact_at_perfect_powers(m):
    rnd = random.Random(m)
    for _ in range(100):
        r = rnd.randint(2, 10**40)
        for guess in (r // 2 + 1, r, r + 1, 10 * r):
            assert _iroot(r**m, m, guess) == r
            assert _iroot(r**m - 1, m, guess) == r - 1
            assert _iroot(r**m + 1, m, guess) == r


def test_square_root_decimal_matches_isqrt():
    rnd = random.Random(9)
    for _ in range(500):
        x = rnd.randint(10**62, 10**80)
        s = math.isqrt(x)
        j = len(str(s)) - 31            # s // 10**j: the leading 31 digits of sqrt(x)
        rounded = (s // 10**j + 5) // 10 * 10 ** (j + 1)
        assert decimal_root(x, 1, 2) == decimal_ratio(rounded, 1)
        assert decimal_root(s * s, 1, 2) == decimal_ratio(s, 1)
