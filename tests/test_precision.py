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
import types
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from quantacode import precision
from quantacode.precision import (
    _iroot,
    _iroot_floor,
    decimal_ratio,
    decimal_root,
    format_decimal,
    format_exact,
    scan_formatter,
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


# ---- scan_formatter against decimal_ratio and decimal_root ------------------

BIG_D = 7 * 10**4299 + 12345            # 4,300 digits
SCAN_MS = (2, 3, 4, 6, 13, 24, 64)


def exact_row(d, m, t, a):
    return (decimal_ratio(a, d * t),
            decimal_ratio(t * a, d) if m == 2 else decimal_root(t * a**m, d**m, m))


@pytest.fixture
def fallbacks(monkeypatch):
    """The (n, q, m) of every decimal_root call scan_formatter makes; the
    tests' own exact rows call the original."""
    calls = []

    def counted(n, q, m, sig=30):
        calls.append((n, q, m))
        return decimal_root(n, q, m, sig)
    monkeypatch.setattr(precision, "decimal_root", counted)
    return calls


@pytest.mark.parametrize("d", [10**6, 10**20, 10**60, BIG_D],
                         ids=["d6", "d20", "d60", "d4300"])
def test_scan_formatter_matches_exact_on_random_rows(d, fallbacks):
    # 3 * 7 * 470 + 7 * 12 = 9,954 rows plus the A = 0 ones, none of which
    # the root's error bound leaves undecided; A spans every decade of d
    rnd = random.Random(len(str(d)))
    digits = len(str(d))
    for m in SCAN_MS:
        fmt = scan_formatter(d, m)
        assert fmt(rnd.randint(2, 1 << 24), 0) == ("0.0", "0.0")
        for _ in range(12 if d == BIG_D else 470):
            t = rnd.randint(2, 1 << 24)
            a = rnd.randint(1, 10 ** rnd.randint(1, digits))
            assert fmt(t, a) == exact_row(d, m, t, a), (m, t, a)
    assert not fallbacks


def a_below(v, t, m, d):
    """A with t**(1/m) * A/d within one step d/t**(1/m) of the value v."""
    r = _iroot_floor(t * 10 ** (150 * m), m)      # t**(1/m) * 10**150, floored
    return v.numerator * d * 10**150 // (v.denominator * r)


def boundaries(rnd):
    """(31-digit value at a rounding boundary, its exponent): random ties,
    the 9.99...95 carry, and values at the layout switches -10 and 30."""
    out = [(Fraction(10 * rnd.randrange(10**29, 10**30) + 5), e)
           for e in (-1, 0, 3)]
    out += [(Fraction(15 * 10**29), e) for e in (-11, -10, -9, 29, 30, 31)]
    out += [(Fraction(10**31 - 5), e) for e in (-11, -10, -1, 0, 29)]
    return [(x * Fraction(10) ** (e - 30), e) for x, e in out]


@pytest.mark.parametrize("m", SCAN_MS[1:])
def test_scan_formatter_hands_near_ties_to_decimal_root(m, fallbacks):
    # d = 10**60 puts A/d within 10**-60 of any value: the quality's
    # 31-digit x = Q * 10**(30 - e) is then 10**-29 from a rounding
    # boundary (no bound of the fixed-point root decides it), or from the
    # half-way point past it (the root decides it, carries included)
    d = 10**60
    fmt = scan_formatter(d, m)
    rnd = random.Random(m)
    for v, e in boundaries(rnd):
        for t in (3, 1000, rnd.randint(2, 1 << 24)):
            if round(t ** (1 / m)) ** m == t:
                continue
            half = v + Fraction(10) ** (e - 30) / 2
            for a0, undecided in ((a_below(v, t, m, d), True),
                                  (a_below(half, t, m, d), False)):
                for a in range(a0 - 2, a0 + 3):
                    fallbacks.clear()
                    assert fmt(t, a) == exact_row(d, m, t, a), (m, t, a)
                    assert len(fallbacks) == undecided, (m, t, a)


def has_integer_x(n, q, sig=30):
    """Whether the sig + 1 leading digits of n/q are all of it: then x, the
    formatter's n/q * 10**(sig - e), is an integer."""
    v = Fraction(n, q)
    e = math.floor(math.log10(n) - math.log10(q))
    while Fraction(10) ** e > v:
        e -= 1
    while Fraction(10) ** (e + 1) <= v:
        e += 1
    return (v * Fraction(10) ** (sig - e)).denominator == 1


@pytest.mark.parametrize("d", [10**6, 10**20, 10**60, BIG_D],
                         ids=["d6", "d20", "d60", "d4300"])
@pytest.mark.parametrize("m", SCAN_MS[1:])
def test_scan_formatter_hands_perfect_powers_to_decimal_root(m, d, fallbacks):
    # t = j**m: the root is rational, and the quality j * A/d is a
    # terminating decimal for d = 10**k, exact ties included.  Rows whose
    # x is an integer lie on a rounding boundary, so the root's error bound
    # leaves them undecided; at every other row it decides x's floor
    rnd = random.Random(m)
    fmt = scan_formatter(d, m)
    rows = [(j**m, rnd.randint(1, d)) for j in range(1, 5)]
    if d == 10**60:
        rows += [(2**m, int(v * d / 2)) for v, _ in boundaries(rnd)]
    undecided = 0
    for t, a in rows:
        j = round(t ** (1 / m))
        fallbacks.clear()
        assert fmt(t, a) == exact_row(d, m, t, a), (m, t, a)
        integer = has_integer_x(j * a, d)
        assert fallbacks == ([(t * a**m, d**m, m)] if integer else []), (m, t, a)
        undecided += integer
    if d < 10**30:      # j * A/d has at most 23 digits
        assert undecided == len(rows)
    elif d == 10**60:   # the boundary rows, not the random ones
        assert undecided == len(rows) - 4


def test_scan_formatter_ratios_round_exact_ties():
    # m = 2 takes no root: delta_star = A/(d t) and the quality t A/d are
    # exact at terminating ties, just below them and at the carries
    d = 10**60
    fmt = scan_formatter(d, 2)
    for v, _ in boundaries(random.Random(2)):
        for t in (5, 8, 1 << 20):
            a = int(v * d * t)                      # delta_star = v
            for a in (a - 1, a, a + 1):
                assert fmt(t, a) == exact_row(d, 2, t, a), (t, a)
        a = int(v * d / 5)                          # quality at t = 5 is v
        for a in (a - 1, a, a + 1):
            assert fmt(5, a) == exact_row(d, 2, 5, a), a


@pytest.mark.parametrize("skew", [-1.7, 0.6])
def test_scan_formatter_digits_do_not_depend_on_float_guesses(skew, monkeypatch,
                                                             fallbacks):
    # log10(t) off by `skew` decades moves every exponent guess by it (the
    # skews of log10(A) and log10(d) cancel): a guess below the exponent
    # sheds digits, one above retries a ratio's division and hands a root's
    # row to decimal_root, and no digit changes
    skewed = types.SimpleNamespace(**vars(math))
    skewed.log10 = lambda x: math.log10(x) + skew
    monkeypatch.setattr(precision, "math", skewed)
    rnd = random.Random(10)
    for m in (2, 3, 24):
        fmt = scan_formatter(10**20, m)
        for _ in range(100):
            t, a = rnd.randint(2, 1 << 24), rnd.randint(1, 10**20)
            assert fmt(t, a) == exact_row(10**20, m, t, a), (m, t, a)
    assert bool(fallbacks) == (skew > 0)
