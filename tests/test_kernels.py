"""Kernel equivalence: the numpy int64 scan must match the pure big-integer
reference wherever the int64 guard admits it, the bounded exhaustive oracle
must match plain enumeration, and the range coder must round-trip."""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from quantacode import ProbabilityVector, round_min_max
from quantacode import _kernels as K

from conftest import random_decimal_probs


def _probs(seed, m, digits=10**6):
    rng = np.random.default_rng(seed)
    return ProbabilityVector(random_decimal_probs(rng, m))


class TestMinmaxScan:
    @given(st.integers(2, 10), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_numpy_matches_exact(self, m, seed):
        p = _probs(seed, m)
        nums, d = p.numerators, p.common_denominator
        a_np, f_np = K._minmax_scan_np(nums, d, m, m + 200, True)
        for off in range(201):
            f, a = K.minmax_freqs_exact(nums, d, m + off)
            assert int(a_np[off]) == a
            assert [int(v) for v in f_np[off]] == f

    def test_big_denominator_routes_to_exact(self):
        from quantacode import golden_pair
        p = golden_pair()
        assert not K.fits_int64(p.numerators, p.common_denominator, 100)
        a, f = K.minmax_scan(p.numerators, p.common_denominator, 2, 50,
                             want_freqs=True)
        assert isinstance(a, list) and isinstance(f, list)

    def test_shedding_rows_consistent(self):
        # sub-unit symbols force the repair branches on every backend
        from fractions import Fraction
        p = ProbabilityVector([Fraction(1, 16), Fraction(1, 16),
                               Fraction(1, 8), Fraction(3, 4)])
        nums, d = p.numerators, p.common_denominator
        a_np, f_np = K._minmax_scan_np(nums, d, 4, 64, True)
        for off in range(61):
            f, a = K.minmax_freqs_exact(nums, d, 4 + off)
            assert int(a_np[off]) == a
            assert [int(v) for v in f_np[off]] == f


def _enumerate_min(nums, d, t):
    """Every composition of t into positive parts, in lexicographic order;
    the first one with the smallest A wins."""
    m = len(nums)
    best_f, best_a = None, None
    for head in itertools.product(range(1, t), repeat=m - 1):
        last = t - sum(head)
        if last < 1:
            continue
        f = (*head, last)
        a = max(abs(t * v - fi * d) for v, fi in zip(nums, f))
        if best_a is None or a < best_a:
            best_f, best_a = f, a
    return best_f, best_a


class TestExhaustive:
    @given(st.integers(2, 4), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_bound_matches_plain_enumeration(self, m, seed):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        nums, d = p.numerators, p.common_denominator
        t = int(rng.integers(m, 21))
        f_ref, a_ref = _enumerate_min(nums, d, t)
        f, a = K.exhaustive_min(nums, d, t)
        assert a == a_ref and tuple(f) == f_ref

    def test_ties_keep_lexicographically_smallest(self):
        # uniform sources tie on many compositions; the first one must win
        for m in (2, 3, 4):
            p = ProbabilityVector([Fraction(1, m)] * m)
            nums, d = p.numerators, p.common_denominator
            for t in range(m, 21):
                assert K.exhaustive_min(nums, d, t) == _enumerate_min(nums, d, t)

    @given(st.integers(2, 4), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_minmax_is_optimal(self, m, seed):
        # the apportionment construction must reach the enumerated optimum
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        nums, d = p.numerators, p.common_denominator
        t = int(rng.integers(m, 33))
        _, a_opt = K.exhaustive_min(nums, d, t)
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
        fpos = [table.freqs[s] for s in table.order]
        blob = K.rc_encode(syms, table.position_of_symbol, table.cum, fpos,
                           table.t)
        out, over = K.rc_decode(blob, n, table.order, table.cum, fpos, table.t)
        assert over == 0
        assert np.array_equal(out, syms)


def test_backend_name():
    assert K.backend() == "numpy"


def test_fits_int64_guard():
    assert K.fits_int64([7, 3], 10, 10**4)
    assert not K.fits_int64([7, 3], 10, 2**62)
    assert not K.fits_int64([1] * 65, 65, 10)
