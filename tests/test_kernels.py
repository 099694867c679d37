"""Kernel equivalence: the numpy int64 scan must match the pure big-integer
reference wherever the int64 guard admits it, the bounded exhaustive oracle
must match plain enumeration, and the range coder must round-trip."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantacode import ProbabilityVector, round_min_max
from quantacode import _kernels as K

from conftest import random_decimal_probs
from oracles import _enumerate_min, exhaustive_min


def _probs(seed, m, digits=10**6):
    rng = np.random.default_rng(seed)
    return ProbabilityVector(random_decimal_probs(rng, m))


def _tied_source(rng, m, d=10**6):
    """Numerators over d drawn as in random_decimal_probs; with m > 2 the
    next max(1, (m - 1) // 3) entries repeat the first one, so their
    remainders tie on every row, and m = 2 gives (d/2, d/2)."""
    if m == 2:
        return [d // 2, d // 2]
    nums = [int(v * d) for v in random_decimal_probs(rng, m)]
    for j in range(1, 1 + max(1, (m - 1) // 3)):
        nums[-1] += nums[j] - nums[0]
        nums[j] = nums[0]
    if nums[-1] < 1:        # the last entry gave more than it had
        nums = [d // m] * (m - 1) + [d - (m - 1) * (d // m)]
    return nums


class TestMinmaxScan:
    @given(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 16, 24, 64, 65, 128]),
           st.integers(0, 2**32), st.booleans())
    @settings(max_examples=60)
    def test_numpy_matches_exact(self, m, seed, tied):
        # m on both sides of _PAIRWISE_MAX_M and above 64; the second pass
        # splits the rows into blocks of 7, the last one partial
        rng = np.random.default_rng(seed)
        if tied:
            nums, d = _tied_source(rng, m), 10**6
        else:
            p = _probs(seed, m)
            nums, d = p.numerators, p.common_denominator
        a_np, f_np = K.minmax_scan(nums, d, m, m + 200, True)
        for off in range(201):
            f, a = K.minmax_freqs_exact(nums, d, m + off)
            assert int(a_np[off]) == a
            assert [int(v) for v in f_np[off]] == f
        with mock.patch.object(K, "_BLOCK", 7 * m):
            a_bl, f_bl = K.minmax_scan(nums, d, m, m + 200, True)
        assert np.array_equal(a_bl, a_np) and np.array_equal(f_bl, f_np)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_round_ups_branches_agree(self, m):
        # few distinct remainders, so most columns tie; k = 0, k = m - 1
        # and random k, negative (a shedding row) included
        rng = np.random.default_rng(m)
        rem = rng.integers(-1, 4, (m, 300))
        rem[:, :20] = 2
        key = rem * m + np.arange(m - 1, -1, -1)[:, None]
        for k in (np.zeros(300, np.int64), np.full(300, m - 1),
                  rng.integers(-1, m, 300)):
            pairwise = K._round_ups(key, k)
            with mock.patch.object(K, "_PAIRWISE_MAX_M", 0):
                by_sort = K._round_ups(key, k)
            assert np.array_equal(pairwise, by_sort)
            for j in range(300):   # the k largest remainders, ties to the lower i
                top = sorted(range(m), key=lambda i: (-rem[i, j], i))[:max(k[j], 0)]
                assert np.flatnonzero(pairwise[:, j]).tolist() == sorted(top)

    def test_big_denominator_routes_to_exact(self):
        # a source that overflows int64 is never scanned row by row: the
        # kernel refuses it, and approx scans a truncated stand-in instead
        from quantacode import InvalidArgument, golden_pair
        p = golden_pair()
        assert not K.fits_int64(p.numerators, p.common_denominator, 100)
        with pytest.raises(InvalidArgument):
            K.minmax_scan(p.numerators, p.common_denominator, 2, 50,
                          want_freqs=True)

    def test_shedding_rows_consistent(self):
        # sub-unit symbols force the repair branches on every backend
        from fractions import Fraction
        p = ProbabilityVector([Fraction(1, 16), Fraction(1, 16),
                               Fraction(1, 8), Fraction(3, 4)])
        nums, d = p.numerators, p.common_denominator
        a_np, f_np = K.minmax_scan(nums, d, 4, 64, True)
        for off in range(61):
            f, a = K.minmax_freqs_exact(nums, d, 4 + off)
            assert int(a_np[off]) == a
            assert [int(v) for v in f_np[off]] == f


def _forced_source(rng, m, d=10**12):
    """Numerators over d whose first 1 to m - 1 entries are tiny (1 to
    10**6 over 10**12), so the rows below force f_i = 1 on them, some shed,
    and one entry repeats another, so remainders tie."""
    tiny = [int(rng.integers(1, 10 ** int(rng.integers(1, 7))))
            for _ in range(int(rng.integers(1, m)))]
    rest = [int(v) + 1 for v in rng.dirichlet(np.ones(m - len(tiny)))
            * (d - sum(tiny) - 2 * m)]
    nums = tiny + rest
    if m > 2:
        i, j = sorted(rng.choice(m - 1, size=2, replace=False),
                      key=lambda i: nums[i])
        nums[j] = nums[i]       # the smaller one; the last entry takes the rest
    nums[-1] += d - sum(nums)
    assert min(nums) >= 1
    return nums


def _row_kind(nums, d, t, f):
    """'shed', 'forced' or None (no small), and whether a rounded-up and a
    floored big tie in remainder."""
    n = [t * v // d for v in nums]
    rem = [t * v - k * d for v, k in zip(nums, n)]
    smalls = sum(k == 0 for k in n)
    k = t - sum(n) - smalls
    up = {rem[i] for i in range(len(n)) if n[i] > 0 and f[i] > n[i]}
    low = {rem[i] for i in range(len(n)) if n[i] > 0 and f[i] == n[i]}
    kind = "shed" if k < 0 else "forced" if smalls else None
    return kind, bool(up & low)


def test_forced_and_shedding_rows_match_exact():
    """The numpy fix of forced rows, ties to the lower index, and the exact
    repair of shedding rows, against the reference row by row."""
    rng = np.random.default_rng(8)
    seen = {"shed": 0, "forced": 0, None: 0, "tie": 0}
    for m in (2, 3, 4, 5, 8, 64):
        for _ in range(4):
            nums = _forced_source(rng, m)
            d = 10**12
            for lo in (m, 5000):
                a_np, f_np = K.minmax_scan(nums, d, lo, lo + 300, True)
                for off in range(301):
                    f, a = K.minmax_freqs_exact(nums, d, lo + off)
                    assert int(a_np[off]) == a
                    assert f_np[off].tolist() == f
                    kind, tie = _row_kind(nums, d, lo + off, f)
                    seen[kind] += 1
                    seen["tie"] += tie
    assert min(seen["shed"], seen["forced"], seen["tie"]) > 100, seen


class TestExhaustive:
    @given(st.integers(2, 4), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_bound_matches_plain_enumeration(self, m, seed):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        nums, d = p.numerators, p.common_denominator
        t = int(rng.integers(m, 21))
        f_ref, a_ref = _enumerate_min(nums, d, t)
        f, a = exhaustive_min(nums, d, t)
        assert a == a_ref and tuple(f) == f_ref

    def test_ties_keep_lexicographically_smallest(self):
        # uniform sources tie on many compositions; the first one must win
        for m in (2, 3, 4):
            p = ProbabilityVector([Fraction(1, m)] * m)
            nums, d = p.numerators, p.common_denominator
            for t in range(m, 21):
                assert exhaustive_min(nums, d, t) == _enumerate_min(nums, d, t)

    @given(st.integers(2, 4), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_minmax_is_optimal(self, m, seed):
        # the apportionment construction must reach the enumerated optimum
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        nums, d = p.numerators, p.common_denominator
        t = int(rng.integers(m, 33))
        _, a_opt = exhaustive_min(nums, d, t)
        _, a_mm = K.minmax_freqs_exact(nums, d, t)
        assert a_mm == a_opt


class TestRangeCoder:
    @given(st.integers(2, 9), st.integers(0, 2**32), st.integers(0, 800))
    @settings(max_examples=25)
    def test_decode_roundtrip(self, m, seed, n):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        table = round_min_max(p, int(rng.integers(m, 3000)))
        syms = rng.integers(0, m, n, dtype=np.int64)
        starts = [table.cum[k] for k in table.position_of_symbol]
        blob = K.rc_encode(syms, table.freqs, starts, table.order[-1], table.t)
        fpos = [table.freqs[s] for s in table.order]
        out, over = K.rc_decode(blob, n, table.order, table.cum, fpos, table.t)
        assert over == 0
        assert np.array_equal(out, syms)


def test_backend_name():
    assert K.backend() == "numpy"


def test_fits_int64_guard():
    assert K.fits_int64([7, 3], 10, 10**4)
    assert not K.fits_int64([7, 3], 10, 2**62)
    assert K.fits_int64([1] * 65, 65, 10)   # no cap on the alphabet size
    assert not K.fits_int64([1] * 65, 2**60, 10)


@st.composite
def _gap_cases(draw):
    """(nums, d, lo, hi, cap): a source over d that fits int64 up to hi, a
    span [lo, hi] with m <= lo, and one cap from 0 up to past d/2."""
    m = draw(st.integers(2, 12))
    d = draw(st.sampled_from([10**6, 10**9, 2**31 - 1, 10**12]))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=m - 1, max_size=m - 1)))
    nums = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
    lo = draw(st.integers(m, 10**5))
    return nums, d, lo, lo + draw(st.integers(0, 200)), draw(st.integers(0, d // 2 + 1))


def _gap(nums, d, t):
    """max_i of the distance from t*nums_i to a multiple of d."""
    return max(min(t * v % d, d - t * v % d) for v in nums)


@given(_gap_cases())
@settings(max_examples=150, deadline=None)
def test_gap_screen_matches_brute_force(case):
    nums, d, lo, hi, cap = case
    assert K.fits_int64(nums, d, hi)
    ts = range(lo, hi + 1)
    got, first = K.gap_screen(nums, d, lo, hi, cap)
    assert got.tolist() == [t for t in ts if _gap(nums, d, t) <= cap]
    assert first == sum(_gap(nums[:1], d, t) <= cap for t in ts)
    want = [K.minmax_freqs_exact(nums, d, t) for t in ts]
    for t, (_, a) in zip(ts, want):     # the gap bounds every table's A
        assert _gap(nums, d, t) <= a
    # the kernel on the scattered rows that are left, possibly none
    a, f = K._minmax_rows(nums, d, got, True)
    kept = [w for t, w in zip(ts, want) if t in set(got.tolist())]
    assert f.tolist() == [row for row, _ in kept]
    assert a.tolist() == [v for _, v in kept]


@st.composite
def _window_cases(draw):
    """(a, d, w, lo, hi) with hi*d < 2**62: d from 2 to 50, decimal, or
    the truncated chunks' (2**62 - 1) // hi; a = 0 and w = 0 among the
    draws, w up to past d/2 (every row passes once 2w >= d - 1), and spans
    of 1 to 2**17 rows."""
    lo = draw(st.integers(1, 10**6))
    hi = lo + draw(st.one_of(st.integers(0, 64), st.integers(0, (1 << 17) - 1)))
    d = draw(st.one_of(st.integers(2, 50), st.sampled_from([10**6, 2**31 - 1]),
                       st.just(((1 << 62) - 1) // hi)))
    a = draw(st.one_of(st.just(0), st.integers(0, d - 1)))
    w = draw(st.one_of(st.just(0), st.integers(0, max(d >> 12, 1)),
                       st.integers(0, d // 2 + 1)))
    return a, d, w, lo, hi


_TRUNC = ((1 << 62) - 1) // (1 << 18)   # a truncated chunk's D at hi = 2**18


@given(_window_cases())
@example((0, 7, 1, 10, 20))                         # a = 0
@example((3, 50, 0, 1, 1))                          # w = 0, one row
@example((13, 27, 13, 5, 300))                      # 2w = d - 1: every row
@example((12, 26, 12, 5, 300))                      # 2w + 2 = d: one residue out
@example((10**6 - 1, 10**6, 3, 1, 1 << 17))          # a = -1 mod d, 2**17 rows
@example((123456789, _TRUNC, 5000, 1 << 17, (1 << 18) - 1))   # truncated D
@settings(max_examples=400, deadline=None)
def test_gap_window_matches_brute_force(case):
    a, d, w, lo, hi = case
    assert hi * d < 1 << 62
    ts = np.arange(lo, hi + 1, dtype=np.int64)
    r = ts * a % d
    got = K.gap_window(a, d, w, lo, hi)
    assert got.dtype == np.int64
    assert np.array_equal(got, ts[np.minimum(r, d - r) <= w])
