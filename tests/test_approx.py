import itertools
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantacode import (
    DenominatorTooSmall,
    ProbabilityVector,
    WidthTooSmall,
    best_table_under_width,
    cf_convergents,
    error_profile,
    golden_pair,
    golden_surrogate,
    irrational_triple,
    parse_probability_vector,
    record_scan,
    round_min_max,
    scan_rows,
    silver_pair,
    silver_surrogate,
)
from quantacode import _kernels, approx, bounds, cli
from quantacode.approx import _FIRST_CHUNK, _chunks, _hit_ts, _spans, _threshold_tests
from quantacode.bounds import KAPPA_GENERIC, KAPPA_GOLDEN
from quantacode.precision import DEFAULT_DPS
from quantacode.prob_model import PRESETS

from conftest import random_decimal_probs
from oracles import exhaustive_best

FIBONACCI = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
             1597, 2584, 4181, 6765]


class TestRoundMinMax:
    def test_exact_split(self):
        p = parse_probability_vector(["0.5", "0.5"])
        table = round_min_max(p, 4)
        assert table.freqs == (2, 2)
        assert error_profile(p, table).delta_star == 0

    def test_largest_remainder(self):
        p = parse_probability_vector(["0.7", "0.3"])
        table = round_min_max(p, 4)
        assert table.freqs == (3, 1)
        prof = error_profile(p, table)
        assert prof.deltas == (Fraction(-1, 20), Fraction(1, 20))
        assert prof.delta_star == Fraction(1, 20) <= Fraction(1, 8)

    def test_golden_small_denominator(self):
        p = golden_pair()
        table = round_min_max(p, 3)
        assert table.freqs == (2, 1)
        ds = error_profile(p, table).delta_star
        assert abs(float(ds) - abs(float(golden_surrogate()) - 2 / 3)) < 1e-12

    def test_denominator_too_small(self):
        p = parse_probability_vector(["0.7", "0.3"])
        with pytest.raises(DenominatorTooSmall):
            round_min_max(p, 1)

    def test_forced_units_keep_optimality(self):
        # t*p_min < 1 forces f = 1 on the rare symbol
        p = parse_probability_vector(["0.05", "0.95"])
        table = round_min_max(p, 4)
        assert table.freqs == (1, 3)
        best = exhaustive_best(p, 4)
        assert (error_profile(p, table).delta_star
                == error_profile(p, best).delta_star)

    def test_shedding_branch_still_optimal(self):
        # two sub-unit symbols but only one round-up available
        p = ProbabilityVector([Fraction(1, 8), Fraction(1, 8), Fraction(3, 4)])
        table = round_min_max(p, 4)
        best = exhaustive_best(p, 4)
        assert (error_profile(p, table).delta_star
                == error_profile(p, best).delta_star)

    @given(st.integers(2, 8), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_error_below_inverse_t_once_floors_positive(self, m, seed):
        # whenever t * p_min >= 1 no unit forcing happens and the
        # largest-remainder construction keeps every error below 1/t
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m, min_p=0.01))
        t = int(rng.integers(int(1 / p.p_min) + 1, 3000))
        ds = error_profile(p, round_min_max(p, t)).delta_star
        assert ds < Fraction(1, t)


class TestExhaustiveBest:
    def test_small_binary(self):
        p = parse_probability_vector(["0.7", "0.3"])
        assert exhaustive_best(p, 4).freqs == (3, 1)

    def test_uniform_triple(self):
        p = parse_probability_vector(["1/3", "1/3", "1/3"])
        table = exhaustive_best(p, 3)
        assert table.freqs == (1, 1, 1)
        assert error_profile(p, table).delta_star == 0

    def test_two_symbols_t_two(self):
        p = parse_probability_vector(["0.5", "0.5"])
        assert exhaustive_best(p, 2).freqs == (1, 1)

    @given(st.integers(2, 4), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_matches_min_max_delta(self, m, seed):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        t = int(rng.integers(m, 33))
        a = error_profile(p, round_min_max(p, t)).delta_star
        b = error_profile(p, exhaustive_best(p, t)).delta_star
        assert a == b


class TestConvergents:
    def test_golden_is_fibonacci(self):
        out = cf_convergents(golden_surrogate(), 13)
        assert [q for _, q in out] == [1, 2, 3, 5, 8, 13]
        assert out[0] == (1, 1)

    def test_rational_terminates_exactly(self):
        out = cf_convergents(Fraction(7, 10), 10)
        assert out[-1] == (7, 10)

    def test_silver_is_pell(self):
        out = cf_convergents(silver_surrogate(), 29)
        assert [q for _, q in out] == [1, 2, 5, 12, 29]

    def test_long_expansion_ends_at_x(self):
        # F(10010)/F(10011) = [0; 1, 1, ..., 1, 2] has 10,010 terms; a cap
        # of 10,000 terms used to stop at a convergent short of x
        fib = [0, 1]
        while len(fib) < 10012:
            fib.append(fib[-1] + fib[-2])
        x = Fraction(fib[10010], fib[10011])
        out = cf_convergents(x, x.denominator)
        assert Fraction(*out[-1]) == x
        # the last term 2 = 1 + 1 skips the convergent at q = F(10010)
        assert [q for _, q in out] == fib[2:10010] + [fib[10011]]

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            cf_convergents(Fraction(3, 2), 10)
        with pytest.raises(ValueError):
            cf_convergents(Fraction(1, 2), 0)

    @given(st.fractions(min_value=Fraction(1, 10**6),
                        max_value=Fraction(10**6 - 1, 10**6)),
           st.integers(1, 300))
    def test_quality_below_inverse_q_squared(self, x, max_q):
        for a, q in cf_convergents(x, max_q):
            assert abs(x - Fraction(a, q)) < Fraction(1, q * q)

    @given(st.integers(1, 999), st.integers(1, 60))
    @settings(max_examples=60)
    def test_each_is_best_among_smaller_denominators(self, num, max_q):
        x = Fraction(num, 1000)
        for a, q in cf_convergents(x, max_q):
            err = abs(x - Fraction(a, q))
            for qq in range(1, q + 1):
                best = min(abs(x - Fraction(round(x * qq), qq)),
                           abs(x - Fraction(int(x * qq), qq)),
                           abs(x - Fraction(int(x * qq) + 1, qq)))
                assert err <= best or q == qq


class TestRecordScan:
    def test_golden_records_are_fibonacci(self):
        res = record_scan(golden_pair(), 1000, kappa=KAPPA_GOLDEN)
        assert res.record_ts == [t for t in FIBONACCI if t <= 1000]

    def test_golden_quality_near_hurwitz_constant(self):
        res = record_scan(golden_pair(), 1000, kappa=KAPPA_GOLDEN)
        last = res.records[-1]
        assert last.t == 987
        assert abs(float(last.quality) - 5 ** -0.5) < 5e-7

    @pytest.mark.parametrize("m, digits", [(24, 6), (4, 20)])
    def test_mary_quality_is_root_t_times_a_over_d(self, m, digits):
        # record_scan stored t**(1/m) * A / d for each record before the
        # quality was computed on demand, from A/d in lowest terms: the two
        # roundings can differ by a few units of 2**-prec, relative
        rnd = random.Random(m)
        cuts = sorted({rnd.randrange(1, 10**digits) for _ in range(m - 1)})
        ends = [0, *cuts, 10**digits]
        p = ProbabilityVector([Fraction(b - a, 10**digits)
                               for a, b in zip(ends, ends[1:])])
        d = p.common_denominator
        res = record_scan(p, 3000)
        assert len(res.records) > 5
        with mp.workdps(DEFAULT_DPS):
            root = mp.mpf(1) / m
            for r in res.records:
                a = r.delta_star * d * r.t
                assert a.denominator == 1 and a > 0
                want = mp.mpf(r.t) ** root * mp.mpf(a.numerator) / d
                assert abs(r.quality - want) <= want * mp.mpf(2) ** (2 - mp.mp.prec)

    def test_rational_terminates_at_exactness(self):
        res = record_scan(parse_probability_vector(["0.7", "0.3"]), 100)
        assert res.record_ts[-1] == 10
        assert res.records[-1].delta_star == 0
        assert res.records[-1].quality == 0

    def test_delta_star_strictly_decreases(self):
        res = record_scan(silver_pair(), 2000, kappa=KAPPA_GENERIC)
        ds = [r.delta_star for r in res.records]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_silver_records_beating_generic_constant(self):
        res = record_scan(silver_pair(), 10**3, kappa=KAPPA_GENERIC)
        rec_hits = [t for t in res.record_ts if t in set(res.fact_hits)]
        assert rec_hits == [2, 12, 70, 408]

    def test_mary_hits_every_decade(self):
        res = record_scan(irrational_triple(), 10**4)
        hits = np.array(res.fact_hits)
        for lo in (10, 100, 1000):
            assert ((hits >= lo) & (hits < 10 * lo)).any()

    def test_mary_records_beat_existence_constant(self):
        res = record_scan(irrational_triple(), 10**4)
        qualifying = [r.t for r in res.records if r.t in set(res.fact_hits)]
        assert len(qualifying) >= 5

    def test_record_freqs_sum_to_t(self):
        res = record_scan(golden_pair(), 500, kappa=KAPPA_GOLDEN)
        for r in res.records:
            assert sum(r.freqs) == r.t

    def test_scan_rows_agree_with_record_scan(self):
        p = silver_pair()
        res = record_scan(p, 300, kappa=KAPPA_GENERIC)
        rows = list(scan_rows(p, 300, kappa=KAPPA_GENERIC))
        assert [t for t, *_ in rows] == list(range(2, 301))
        assert [t for t, _, rec, _ in rows if rec] == res.record_ts
        assert [t for t, _, _, beat in rows if beat] == res.fact_hits

    def test_t_max_below_m_rejected(self):
        with pytest.raises(DenominatorTooSmall):
            record_scan(irrational_triple(), 2)


class TestBestTableUnderWidth:
    def test_single_bit(self):
        p = parse_probability_vector(["0.5", "0.5"])
        table = best_table_under_width(p, 1)
        assert (table.t, table.freqs) == (2, (1, 1))

    def test_golden_prefers_fibonacci(self):
        table = best_table_under_width(golden_pair(), 4)
        assert (table.t, table.freqs) == (13, (8, 5))

    def test_exact_table_found(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = best_table_under_width(p, 4)
        assert (table.t, table.freqs) == (10, (7, 2, 1))
        assert error_profile(p, table).delta_star == 0

    def test_width_too_small(self):
        with pytest.raises(WidthTooSmall):
            best_table_under_width(irrational_triple(), 1)


# ---- the int64 fold against a row-by-row exact oracle -----------------------

def nth_span(m, k, first=_FIRST_CHUNK):
    """(lo, hi) of the k-th chunk, from 0, that a scan of an m-symbol
    source takes (approx._spans)."""
    return next(itertools.islice(_spans(m, 1 << 40, first), k, None))


def exact_tables(p, t_max):
    """[(t, f, A)] for every t in [m, t_max], from the big-integer reference."""
    nums, d = p.numerators, p.common_denominator
    return [(t, *_kernels.minmax_freqs_exact(nums, d, t))
            for t in range(p.m, t_max + 1)]


def exact_fold(p, t_max, tables=None, kappa=None):
    """Row-by-row reference fold in Fractions: [(t, is_record, beats_fact)],
    ending at the first exact table; binary sources test kappa (default
    generic, kappa**2 = 1/8).  `tables` are exact_tables(p, t_max),
    computed here when not given."""
    d, m = p.common_denominator, p.m
    kappa_square = kappa.square if kappa is not None else Fraction(1, 8)
    rows, best = [], None
    for t, _, a in tables or exact_tables(p, t_max):
        ds = Fraction(a, d * t)
        is_rec = best is None or ds < best
        if is_rec:
            best = ds
        if m == 2:
            beats = (t * t * ds) ** 2 < kappa_square
        else:
            beats = t * (t * ds) ** m < Fraction(m, m + 1) ** m
        rows.append((t, is_rec, a > 0 and beats))
        if a == 0:
            break
    return rows


# the second chunk of an m = 3 fold, [4099, 12290]: the fold confirms its
# first records in the first chunk, so it may screen this one
SECOND3 = nth_span(3, 1)


def _near_tie_m3():
    """(p, t2): an m = 3 source that fits int64, whose record t2 = 12,298,
    in the third chunk of its fold, undercuts the record t = 7 by 2e-8,
    relative.

    The table (1757, 8784, 1757) of t2 = 7*1757 - 1 lies at (1, -2, 1)*u
    from (1, 5, 1)/7, u = 1/(7*t2).  p = (1/7 + e, 5/7 - 2e, 1/7 + e) with
    e = u*(1 + 1e-8)/2 has delta_star u*(1 + 1e-8) at t = 7 and
    u*(1 - 1e-8) at t2, both from symbol 1.  (A t2 in SECOND3 would leave
    t = 7's cap too wide to screen that chunk.)"""
    t2 = 7 * 1757 - 1
    e = Fraction(1, 7 * t2) * (1 + Fraction(1, 10**8)) / 2
    return ProbabilityVector([Fraction(1, 7) + e, Fraction(5, 7) - 2 * e,
                              Fraction(1, 7) + e]), t2


def _near_bound_m3():
    """(p, t): an m = 3 source that fits int64 with a hit at t = 17**3 =
    4,913, in SECOND3, whose t**(4/3) * delta_star = 3/4 * (1 - 1e-8) beats
    the bound 3/4 by 1e-8, relative.

    p = f/t + delta*(1, -1, 0), f a table of t from a seeded draw and
    delta = 3/4 * (1 - 1e-8) / 17**4: t*delta < 1/2, so f is p's table at
    t and delta_star = delta."""
    t = 17**3
    rng = np.random.default_rng(3)
    a = int(rng.integers(1, t // 2))
    b = int(rng.integers(1, t - a))
    delta = Fraction(3, 4) * (1 - Fraction(1, 10**8)) / 17**4
    return ProbabilityVector([Fraction(a, t) + delta, Fraction(b, t) - delta,
                              Fraction(t - a - b, t)]), t


def _fold_sources():
    rng = np.random.default_rng(31)
    out = [pytest.param(ProbabilityVector(random_decimal_probs(rng, m)), id=f"m{m}")
           for m in (2, 3, 4, 6, 8, 24, 64, 65, 128)]
    n = nth_span(2, 1)[0]
    spikes = [Fraction(k, 100) + Fraction(s, 10**11)
              for k, s in zip([2] * 36 + [1] * 28, [1, -1] * 32)]
    eps = Fraction(1, 6 * 4100)
    near = Fraction(1, 3) + eps + eps / 10**8
    edge = Fraction(1367, 4100) + Fraction(35352, 10**5) / 4100**2
    out += [
        # repair rows: t * p_min < 1 up to t = 8130, across a chunk end
        pytest.param(parse_probability_vector(["0.000123", "0.4", "0.599877"]),
                     id="repair"),
        # exact table mid-chunk: first exact row t = d = 6000
        pytest.param(parse_probability_vector(["1001/6000", "1999/6000", "1/2"]),
                     id="exact-mid-chunk"),
        # exact table at t = d = n, the first row of the second chunk
        pytest.param(ProbabilityVector([Fraction(1001, n), Fraction(n - 1001, n)]),
                     id="exact-first-row"),
        # A/t ties exactly: every t = 3k up to ~2.5e5 repeats delta_star(3)
        pytest.param(parse_probability_vector(["0.333334", "0.666666"]), id="tie"),
        # near-tie: delta_star(4100) = eps - 2*eps/1e8 undercuts delta_star(3)
        # = eps by 2e-8 relative, a record that a too-tight screen would drop
        pytest.param(ProbabilityVector([near, 1 - near]), id="near-tie"),
        # near-bound: at t = 4100, t**2 * delta_star = 0.35352 beats the
        # generic kappa = 0.353553... by 1e-4 relative
        pytest.param(ProbabilityVector([edge, 1 - edge]), id="near-bound"),
        # (A/d)**64 underflows float64 at every t = 100k, each an exact hit
        pytest.param(ProbabilityVector(spikes), id="underflow"),
        # the m = 3 near-tie and near-bound, which reach the fold
        pytest.param(_near_tie_m3()[0], id="near-tie-m3"),
        pytest.param(_near_bound_m3()[0], id="near-bound-m3"),
    ]
    return out


# three chunks of a binary source, so folds cross chunk boundaries
FOLD_T_MAX = nth_span(2, 2)[0] + 62


@pytest.mark.parametrize("p", _fold_sources())
def test_int64_fold_matches_row_by_row_oracle(p):
    assert _kernels.fits_int64(p.numerators, p.common_denominator, FOLD_T_MAX)
    tables = exact_tables(p, FOLD_T_MAX)
    rows = exact_fold(p, FOLD_T_MAX, tables)
    want_recs = [t for t, rec, _ in rows if rec]
    want_hits = [t for t, _, beat in rows if beat]

    res = record_scan(p, FOLD_T_MAX)
    assert res.record_ts == want_recs
    assert res.fact_hits == want_hits
    flags = [(t, rec, beat) for t, _, rec, beat in scan_rows(p, FOLD_T_MAX)]
    assert flags == rows
    golden = [(t, rec, beat) for t, _, rec, beat
              in scan_rows(p, FOLD_T_MAX, kappa=KAPPA_GOLDEN)]
    assert golden == exact_fold(p, FOLD_T_MAX, tables, KAPPA_GOLDEN)
    width = 13  # 2**13 < FOLD_T_MAX spans two chunks
    best = [r for r in res.records if r.t <= 1 << width][-1]
    table = best_table_under_width(p, width)
    assert (table.t, table.freqs) == (best.t, best.freqs)


# ---- the screened fold: sources that overflow int64 --------------------------

def _digit_probs(rng, m, digits=20):
    """m probabilities with common denominator 10**digits, summing to 1."""
    den = 10**digits
    nums = [1 + int(Fraction(float(w)) * (den - m)) for w in rng.dirichlet(np.ones(m))]
    nums[int(np.argmax(nums))] += den - sum(nums)
    return [Fraction(v, den) for v in nums]


# every source below overflows int64 on each chunk, and the second chunk
# of a binary source, t in SECOND = [lo, hi], is screened on numerators
# over this D
SECOND = nth_span(2, 1)
D_SECOND = ((1 << 62) - 1) // SECOND[1]


def _close_pair():
    """Records t1 = 5006 < t2 = 6837, both in the second chunk, whose
    delta_star differ by less than that chunk's truncation moves p, and
    in the wrong direction.

    1583/5006 < 2162/6837 are Farey neighbours; x sits just above their
    midpoint `mid`: with h = mid - x~ (h*D = 0.228), x~ on the D grid and
    x - x~ = 1.2*h, delta_star(t1) - delta_star(t2) = 2*(x - mid) =
    0.4*h < x - x~, while the truncated delta~(t2) - delta~(t1) = 2*h.
    """
    t1, k1, t2, k2 = 5006, 1583, 6837, 2162
    assert SECOND[0] <= t1 < t2 <= SECOND[1]
    assert k2 * t1 - k1 * t2 == 1
    mid = (Fraction(k1, t1) + Fraction(k2, t2)) / 2
    x_grid = Fraction(int(mid * D_SECOND), D_SECOND)
    h = mid - x_grid
    assert Fraction(1, 5) < h * D_SECOND < Fraction(1, 4)
    x = x_grid + Fraction(6, 5) * h
    return ProbabilityVector([x, 1 - x]), (t1, t2)


D_SECOND3 = ((1 << 62) - 1) // SECOND3[1]


def _delta(probs, t, f):
    """max_i |probs_i - f_i/t|, in Fractions."""
    return max(abs(x - Fraction(v, t)) for x, v in zip(probs, f))


def _close_pair_m3():
    """(p, (t1, t2)): the m = 3 counterpart of _close_pair.  Records
    t1 < t2, both in SECOND3, whose delta_star differ by less than that
    chunk's truncation P~/D_SECOND3 moves p, and in the wrong direction.

    For coprime t1 < t2 from a seeded draw, a2 = t1**-1 mod t2 and
    a1 = (a2*t1 - 1)/t2, the tables f1 = (a1, t1 - 3*a1, 2*a1) of t1 and
    f2 = (a2, t2 - 3*a2, 2*a2) of t2 lie at (1, -3, 2)/(t1*t2) from each
    other.  At their midpoint p0 both have delta_star 1.5/(t1*t2), from
    symbol 1.  p = p0 + (0, -eta, eta) gives t2 the smaller one, by 2*eta,
    with 2*eta just below w, the amount by which the truncation of p0
    moves p0_1 up; the truncation of p keeps t1 the smaller one.  The
    draw is repeated until both hold.  That both are records, with none
    between them, is checked by test_m3_cases_exercise_the_fold.
    """
    rng = np.random.default_rng(7)
    while True:
        t1, t2 = sorted(rng.integers(SECOND3[0], SECOND3[1] + 1, 2).tolist())
        if math.gcd(t1, t2) != 1:
            continue
        a2 = pow(t1, -1, t2)
        a1 = (a2 * t1 - 1) // t2
        f1, f2 = (a1, t1 - 3 * a1, 2 * a1), (a2, t2 - 3 * a2, 2 * a2)
        if min(f1 + f2) < 1:
            continue
        p0 = [Fraction(v, t1) + Fraction(s, 2 * t1 * t2) for v, s in zip(f1, (1, -3, 2))]
        q0 = ProbabilityVector(p0)
        big_p, _ = _kernels.minmax_freqs_exact(q0.numerators, q0.common_denominator,
                                               D_SECOND3)
        eta = Fraction(math.floor((Fraction(big_p[1], D_SECOND3) - p0[1]) * 10**40),
                       2 * 10**40)
        if eta <= 0:
            continue
        p = ProbabilityVector([p0[0], p0[1] - eta, p0[2] + eta])
        big_p, _ = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator,
                                               D_SECOND3)
        trunc = [Fraction(v, D_SECOND3) for v in big_p]
        if _delta(trunc, t1, f1) < _delta(trunc, t2, f2):
            assert _delta(p.probs, t1, f1) - _delta(p.probs, t2, f2) == 2 * eta
            return p, (t1, t2)


def _hit_near_kappa():
    """A generic-kappa binary hit at t = SECOND[0], the first row of the
    second chunk: t**2 * delta_star lies 1.7e-8 (relative) below 2**-1.5,
    while the truncated source puts t**2 * delta~ above it."""
    t = SECOND[0]
    kappa_below = Fraction(353553390593, 10**12)    # < 2**-1.5 = 0.3535533905932...
    for k in range(3 * t // 8, t // 2):
        v = Fraction(k, t) + kappa_below / t**2
        # x sits (c + 0.2)/D < 1/(2D) below x_grid, the D-grid point above
        # v, so P~/D = x_grid and delta~ = delta_star + (x_grid - x)
        x_grid = Fraction(math.ceil(v * D_SECOND), D_SECOND)
        c = (x_grid - v) * D_SECOND
        if math.gcd(k, t) == 1 and Fraction(1, 10) <= c <= Fraction(1, 4):
            x = x_grid - (c + Fraction(1, 5)) / D_SECOND     # x_grid - x = (c + 0.2)/D
            return ProbabilityVector([x, 1 - x]), t
    raise AssertionError("no k found")


def _rebuilt_ts(monkeypatch):
    """Patch _kernels.minmax_freqs_exact to record each t it is called at;
    returns that list."""
    exact, ts = _kernels.minmax_freqs_exact, []
    monkeypatch.setattr(_kernels, "minmax_freqs_exact",
                        lambda *a: ts.append(a[2]) or exact(*a))
    return ts


def _trunc_row(p, t, monkeypatch):
    """The second chunk's truncation as _chunks makes it, at row t:
    (P~, g, P~'s table at t, whether the kernel rebuilt the row on p).
    Either way the kernel returns p's table."""
    assert SECOND[0] <= t <= SECOND[1]
    nums, d = p.numerators, p.common_denominator
    p_trunc, a = _kernels.minmax_freqs_exact(nums, d, D_SECOND)
    g = -(-SECOND[1] * a // d)
    _, f_trunc = _kernels.minmax_scan(p_trunc, D_SECOND, t, t, True)
    f_true, _ = _kernels.minmax_freqs_exact(nums, d, t)
    with monkeypatch.context() as mp:
        rebuilt = _rebuilt_ts(mp)
        _, f = _kernels.minmax_scan(p_trunc, D_SECOND, t, t, True, (nums, d, g))
    assert f[0].tolist() == f_true and rebuilt in ([], [t])
    return p_trunc, g, f_trunc[0].tolist(), rebuilt == [t]


T_NEAR = 6000   # a row of the second chunk


def _near_integer():
    """T_NEAR * x lies 1e-40 below the integer k, while T_NEAR * P~_0/D is
    at or above it: the truncation moves floor(t*p_0) across an integer."""
    for k in range(T_NEAR // 3, T_NEAR // 2):
        x = Fraction(k, T_NEAR) - Fraction(1, 10**40 * T_NEAR)
        p = ProbabilityVector([x, 1 - x])
        p_trunc, _ = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator,
                                                 D_SECOND)
        if T_NEAR * p_trunc[0] >= k * D_SECOND:
            return p
    raise AssertionError("no k found")


def _cut_pair():
    """T_NEAR * x lies 1e-40 below k + 1/2, so p's two remainders at T_NEAR
    differ by 2e-40 and symbol 1 takes the round-up; the truncation puts
    T_NEAR * P~_0 clearly above (k + 1/2)*D, so P~'s table gives it to
    symbol 0, a remainder gap of at least a tenth of T_NEAR."""
    for k in range(T_NEAR // 3, T_NEAR // 2):
        x = Fraction(2 * k + 1, 2 * T_NEAR) - Fraction(1, 10**40 * T_NEAR)
        p = ProbabilityVector([x, 1 - x])
        p_trunc, _ = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator,
                                                 D_SECOND)
        if 2 * T_NEAR * p_trunc[0] - (2 * k + 1) * D_SECOND > T_NEAR // 5:
            return p
    raise AssertionError("no k found")


def _screened_sources():
    rng = np.random.default_rng(47)
    out = [pytest.param(golden_pair(), id="golden"),
           pytest.param(silver_pair(), id="silver"),
           pytest.param(irrational_triple(), id="triple")]
    out += [pytest.param(ProbabilityVector(_digit_probs(rng, m)), id=f"m{m}-20digit")
            for m in (2, 3, 4, 6, 8, 24, 64, 65, 128)]
    # delta_star(3k) = 1e-40, far below g/(D*t), at every multiple of 3: a
    # record at t = 3, then exact ties, each a hit; on the first chunk
    # P~/D is 1/3 itself, so the kernel reports A~ = 0 there
    third = Fraction(1, 3) + Fraction(1, 10**40)
    out.append(pytest.param(ProbabilityVector([third, 1 - third]), id="near-exact"))
    pair, _ = _close_pair()
    out.append(pytest.param(pair, id="close-pair"))
    pair, _ = _close_pair_m3()
    out.append(pytest.param(pair, id="close-pair-m3"))
    hit, _ = _hit_near_kappa()
    out.append(pytest.param(hit, id="hit-near-kappa"))
    out.append(pytest.param(_near_integer(), id="near-integer"))
    out.append(pytest.param(_cut_pair(), id="cut-pair"))
    return out


@pytest.mark.parametrize("p", _screened_sources())
def test_screened_fold_matches_row_by_row_oracle(p):
    assert not _kernels.fits_int64(p.numerators, p.common_denominator, nth_span(2, 0)[1])
    tables = exact_tables(p, FOLD_T_MAX)
    rows = exact_fold(p, FOLD_T_MAX, tables)
    want_recs = [t for t, rec, _ in rows if rec]
    want_hits = [t for t, _, beat in rows if beat]

    res = record_scan(p, FOLD_T_MAX)
    assert res.record_ts == want_recs
    assert res.fact_hits == want_hits
    for r in res.records:
        f, a = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator, r.t)
        assert r.freqs == tuple(f)
        assert r.delta_star == Fraction(a, p.common_denominator * r.t)
    scanned = list(scan_rows(p, FOLD_T_MAX))
    assert [(t, rec, beat) for t, _, rec, beat in scanned] == rows
    # every row's A, and every certified table of the truncated chunks
    assert [(t, a) for t, a, *_ in scanned] == [(t, a) for t, _, a in tables[:len(rows)]]
    certified = [(t, f) for chunk in _chunks(p, FOLD_T_MAX)
                 for t, f in enumerate(chunk.tables.tolist(), chunk.lo)]
    assert certified == [(t, f) for t, f, _ in tables]
    for width in (12, 13):
        best = [r for r in res.records if r.t <= 1 << width][-1]
        table = best_table_under_width(p, width)
        assert (table.t, table.freqs) == (best.t, best.freqs)


def test_screened_cases_exercise_their_rows(monkeypatch):
    """The constructed sources put their rows where the screen is tested."""
    pair, (t1, t2) = _close_pair()
    recs = [t for t, rec, _ in exact_fold(pair, FOLD_T_MAX) if rec]
    assert t1 in recs and t2 in recs
    hit, t = _hit_near_kappa()
    assert t in [u for u, _, beat in exact_fold(hit, FOLD_T_MAX) if beat]
    # each construct is screened on D_SECOND over the chunk SECOND
    for p in (pair, hit, _near_integer(), _cut_pair()):
        _, chunk = itertools.islice(approx._chunks(p, SECOND[1]), 2)
        assert (chunk.lo, chunk.hi, chunk.den) == (*SECOND, D_SECOND) and chunk.g

    # near-integer: the truncated floor of t*p_0 is wrong at T_NEAR, and
    # condition (1) sends the row to the exact rebuild
    p = _near_integer()
    p_trunc, g, _, rebuilt = _trunc_row(p, T_NEAR, monkeypatch)
    assert (T_NEAR * p.numerators[0] // p.common_denominator
            < T_NEAR * p_trunc[0] // D_SECOND)
    rem = [T_NEAR * v % D_SECOND for v in p_trunc]
    assert not all(g <= v < D_SECOND - g for v in rem) and rebuilt
    # cut pair: P~'s table at T_NEAR is not p's, condition (1) holds, and
    # only the cut gap (3) sends the row to the exact rebuild
    p = _cut_pair()
    p_trunc, g, f_trunc, rebuilt = _trunc_row(p, T_NEAR, monkeypatch)
    f_true, _ = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator,
                                            T_NEAR)
    assert f_trunc != f_true
    rem = [T_NEAR * v % D_SECOND for v in p_trunc]
    assert all(g <= v < D_SECOND - g for v in rem) and rebuilt


# m = 4 sources p = (P~ + e)/D over the second chunk, with truncation
# errors e: two symbols floored and two rounded up at t = D, max |e| =
# 9/20, so P~/D is the chunk's truncation and g = ceil(hi * 9/20)
SECOND4 = nth_span(4, 1)
D_SECOND4 = ((1 << 62) - 1) // SECOND4[1]
E_SECOND4 = (Fraction(-9, 200), Fraction(-9, 200), Fraction(9, 20), Fraction(-9, 25))


@pytest.mark.parametrize("p_trunc, t, side", [
    ([15503196651, 15503196651, 152675480617102, 222501878332317], 12101, "lower"),
    ([15468682608, 15468682608, 57048501458771, 318128926518734], 12128, "upper"),
], ids=["lower", "upper"])
def test_each_side_of_condition_1_guards_a_row(monkeypatch, p_trunc, t, side):
    """Each side of condition (1) is the only one of the three conditions
    that keeps row t from being certified, where P~'s table is not p's.

    At t the first two symbols are smalls and take the two round-ups, so
    k = 0: the row does not shed (2) and rounds up no big (3 holds).
    "lower": the last symbol's remainder lies below g, and its true floor
    is one less, so p rounds up the third symbol.  "upper": the third
    symbol's remainder lies within g of D, and its true floor is one
    more, so p sheds from the last.  Found by a seeded search
    (random.Random(0)) over rows near the chunk's end, with the
    remainders t*P~_i mod D drawn in those ranges and P~ solved from them.
    """
    p = ProbabilityVector([(v + e) / D_SECOND4 for v, e in zip(p_trunc, E_SECOND4)])
    nums, d = p.numerators, p.common_denominator
    _, chunk = itertools.islice(_chunks(p, SECOND4[1]), 2)
    assert (chunk.lo, chunk.hi, chunk.den) == (*SECOND4, D_SECOND4)
    assert chunk.big_p == p_trunc and chunk.g == -(-SECOND4[1] * 9 // 20)
    g, n = chunk.g, [t * v // D_SECOND4 for v in p_trunc]
    rem = [t * v % D_SECOND4 for v in p_trunc]
    assert n[:2] == [0, 0] and t - sum(n) == 2          # k = 0
    assert (min(rem) >= g, max(rem) <= D_SECOND4 - 1 - g) == (side == "upper",
                                                              side == "lower")
    f_true, _ = _kernels.minmax_freqs_exact(nums, d, t)
    _, f_trunc = _kernels.minmax_scan(p_trunc, D_SECOND4, t, t, True)
    assert f_trunc[0].tolist() != f_true
    rebuilt = _rebuilt_ts(monkeypatch)
    _, f = _kernels.minmax_scan(p_trunc, D_SECOND4, t, t, True, chunk.exact)
    assert f[0].tolist() == f_true and rebuilt == [t]


def test_m3_cases_exercise_the_fold(monkeypatch):
    """The m = 3 near-tie, near-bound and close-pair sources reach _fold,
    which screens the chunks of their rows and keeps them: the records and
    hits that the binary constructs test on the continued fraction, on the
    fold."""
    tie, t_tie = _near_tie_m3()
    bound, t_hit = _near_bound_m3()
    pair, (t1, t2) = _close_pair_m3()
    folds, kept = [], {}
    fold, screen = approx._fold, _kernels.gap_screen

    def spy(nums, d, lo, hi, cap):
        ts, first = screen(nums, d, lo, hi, cap)
        kept[lo, hi] = ts.tolist()
        return ts, first

    monkeypatch.setattr(approx, "_fold", lambda *a, **k: folds.append(a[0]) or fold(*a, **k))
    monkeypatch.setattr(_kernels, "gap_screen", spy)
    # each case: consecutive records or a hit, and the rows to keep
    for p, recs, hits, rows_kept in [(tie, [7, t_tie], [], [t_tie]),
                                     (bound, [], [t_hit], [t_hit]),
                                     (pair, [t1, t2], [], [t1, t2])]:
        folds.clear()
        kept.clear()
        rows = exact_fold(p, FOLD_T_MAX)
        want_recs = [t for t, rec, _ in rows if rec]
        want_hits = [t for t, _, beat in rows if beat]
        assert any(want_recs[i:i + len(recs)] == recs for i in range(len(want_recs)))
        assert set(hits) <= set(want_hits)
        res = record_scan(p, FOLD_T_MAX)
        assert folds == [p]
        assert (res.record_ts, res.fact_hits) == (want_recs, want_hits)
        for t in rows_kept:
            assert [t in ts for (lo, hi), ts in kept.items() if lo <= t <= hi] == [True]
    # near-tie: 2e-8 relative; near-bound: 1e-8 relative below 3/4
    d_tie = [Fraction(A, tie.common_denominator * t) for t, A in
             ((t, _kernels.minmax_freqs_exact(tie.numerators, tie.common_denominator, t)[1])
              for t in (7, t_tie))]
    assert d_tie[1] / d_tie[0] == (1 - Fraction(1, 10**8)) / (1 + Fraction(1, 10**8))
    _, a = _kernels.minmax_freqs_exact(bound.numerators, bound.common_denominator, t_hit)
    assert Fraction(a, bound.common_denominator) == Fraction(3, 4) * (1 - Fraction(1, 10**8)) / 17
    # close pair: P~/D of SECOND3 is the fold's truncation there
    chunk = next(itertools.islice(_chunks(pair, SECOND3[1]), 1, None))
    assert (chunk.lo, chunk.hi, chunk.den) == (*SECOND3, D_SECOND3) and chunk.g


@pytest.mark.parametrize("seed", range(6))
def test_truncation_lemma_bounds_every_row(seed):
    """The module docstring's truncation lemma, in integers, at every row
    of a truncated chunk: |d*A~ - D*A| <= t*a <= d*g, with A~ the kernel's
    A on P~/D, A p's own from minmax_freqs_exact, a the truncation's A and
    g the chunk's slack."""
    rng = np.random.default_rng([seed, 83])
    m, digits = int(rng.integers(2, 7)), int(rng.integers(20, 41))
    p = ProbabilityVector(_digit_probs(rng, m, digits))
    nums, d = p.numerators, p.common_denominator
    for chunk in _chunks(p, SECOND[1]):
        den = chunk.den
        p_trunc, a = _kernels.minmax_freqs_exact(nums, d, den)
        assert chunk.big_p == p_trunc and den < d and chunk.g >= 1
        for t, a_tilde in enumerate(chunk.a_tilde.tolist(), chunk.lo):
            _, a_true = _kernels.minmax_freqs_exact(nums, d, t)
            assert abs(d * a_tilde - den * a_true) <= t * a <= d * chunk.g


def test_slack_past_the_denominator_certifies_no_row(monkeypatch):
    # a chunk's g stays below 2**62 but may exceed D; the kernel then
    # takes it as D, keeping 2g in int64, certifies no row and rebuilds
    # every one
    p = ProbabilityVector(_digit_probs(np.random.default_rng(89), 4))
    nums, d = p.numerators, p.common_denominator
    chunk = next(_chunks(p, 5000))
    want = [_kernels.minmax_freqs_exact(nums, d, t)[0] for t in chunk.ts.tolist()]
    rebuilt = _rebuilt_ts(monkeypatch)
    _, f = _kernels.minmax_scan(chunk.big_p, chunk.den, chunk.lo, chunk.hi,
                                True, (nums, d, (1 << 62) - 1))
    assert rebuilt == chunk.ts.tolist()
    assert f.tolist() == want


# ---- exact hit caps and batched record tables --------------------------------

@pytest.mark.parametrize("kappa", [KAPPA_GENERIC, KAPPA_GOLDEN], ids=["generic", "golden"])
@pytest.mark.parametrize("m", [3, 6, 24, 64])
def test_hit_cap_is_the_largest_passing_a(m, kappa):
    rng = np.random.default_rng(m)
    for d in (10**6, 10**20):
        exact, cap, _ = _threshold_tests(m, d)
        ts = sorted(rng.integers(m, 10**7, size=300).tolist() + [m, d**m])
        caps = [cap(t) for t in ts]
        assert caps == sorted(caps, reverse=True)    # non-increasing in t
        for t, c in zip(ts, caps):
            assert exact(t, c) and not exact(t, c + 1), (t, c)
        assert 0 in caps and caps[0] > 0
    # at d = 2*(m+1)*k, t = 2**m and a = m*k the quality is m/(m+1)
    # exactly, which is no hit
    k = 1000
    exact, cap, _ = _threshold_tests(m, 2 * (m + 1) * k)
    assert not exact(2**m, m * k) and cap(2**m) == m * k - 1
    # a binary kappa leaves an m-ary scan's hits to the m/(m+1) test
    p = ProbabilityVector(random_decimal_probs(rng, m))
    exact = _threshold_tests(m, p.common_denominator)[0]
    rows = list(scan_rows(p, 300, kappa=kappa))
    assert ([t for t, _, _, beat in rows if beat]
            == [t for t, a, *_ in rows if a and exact(t, a)])



@pytest.mark.parametrize("m", [3, 24])
@pytest.mark.parametrize("d", [10**6, 10**20])
def test_hit_rows_agree_with_the_exact_test(m, d):
    # A around each row's own cap and around the last row's, so that rows
    # fall below the chunk's cap, between it and their own, and above both
    rng = np.random.default_rng(61 + m)
    exact, cap, _ = _threshold_tests(m, d)
    lo = 100
    js = np.sort(rng.choice(_FIRST_CHUNK, size=200, replace=False))
    last = cap(lo + int(js[-1]))
    a = [max(int(rng.choice([cap(lo + j), last])) + int(rng.integers(-2, 3)), 0)
         for j in js.tolist()]
    a[-1] = last + 1    # just above the chunk's cap: no hit
    want = [lo + j for j, v in zip(js.tolist(), a) if v > 0 and exact(lo + j, v)]
    assert 0 < len(want) < len(a) - 1
    assert _hit_ts(lo, js, a, exact, cap) == want
    if max(a) < 2**62:
        assert _hit_ts(lo, js, np.array(a, dtype=np.int64), exact, cap) == want

def _hit_sources():
    rng = np.random.default_rng(53)
    for digits in (6, 20):
        for m in (*range(2, 10), 16, 24, 64, 65, 128):
            probs = (random_decimal_probs(rng, m) if digits == 6
                     else _digit_probs(rng, m, digits))
            yield pytest.param(ProbabilityVector(probs), id=f"m{m}-{digits}digit")


@pytest.mark.parametrize("p", _hit_sources())
def test_hits_match_a_plain_per_row_loop(p):
    # 6-digit sources fit int64 on every chunk, 20-digit ones are truncated
    t_max = _FIRST_CHUNK + 64
    fits = _kernels.fits_int64(p.numerators, p.common_denominator, t_max)
    assert fits == (p.common_denominator <= 10**6)
    rows = exact_fold(p, t_max)
    res = record_scan(p, t_max)
    assert res.fact_hits == [t for t, _, beat in rows if beat]
    assert res.record_ts == [t for t, rec, _ in rows if rec]
    hits = [t for t, _, _, beat in scan_rows(p, t_max) if beat]
    assert hits == res.fact_hits


def _row_kind(p, t):
    """'shed', 'forced' or 'plain': how min-max rounding treats row t."""
    nums, d = p.numerators, p.common_denominator
    n = [t * v // d for v in nums]
    smalls = n.count(0)
    return "shed" if smalls > t - sum(n) else "forced" if smalls else "plain"


def _table_sources():
    rng = np.random.default_rng(59)
    # p_min = 1e-4 < 1/m**2: rows up to t = 10**4 force the smalls; the
    # early records alternate between forced rows and rows that shed, and
    # the 20-digit twin overflows int64, so its records come from
    # truncated chunks
    tiny = ([Fraction(1, 10**4)] * 3
            + [Fraction(v, 10**4) for v in (1013, 2511, 2029, 2477, 1967)])
    nudge = [0] * 6 + [Fraction(1, 10**20), -Fraction(1, 10**20)]
    out = [pytest.param(ProbabilityVector(tiny), id="forced-6digit"),
           pytest.param(ProbabilityVector([x + e for x, e in zip(tiny, nudge)]),
                        id="forced-20digit")]
    # above m = 64 too, every record of a 6-digit source comes from the
    # int64 kernel and every one of a 20-digit source from a truncated chunk
    out += [pytest.param(ProbabilityVector(random_decimal_probs(rng, m)), id=f"m{m}")
            for m in (3, 24, 64, 65, 70, 128)]
    out += [pytest.param(ProbabilityVector(_digit_probs(rng, m)), id=f"m{m}-20digit")
            for m in (65, 128)]
    return out


@pytest.mark.parametrize("p", _table_sources())
def test_record_tables_match_the_exact_reference(p):
    nums, d = p.numerators, p.common_denominator
    res = record_scan(p, 3000)
    for r in res.records:
        f, a = _kernels.minmax_freqs_exact(nums, d, r.t)
        assert r.freqs == tuple(f), r.t
        assert r.delta_star == Fraction(a, d * r.t)
    if min(p.probs) < Fraction(1, p.m**2):
        kinds = {_row_kind(p, r.t) for r in res.records}
        assert {"shed", "forced"} <= kinds


def test_wide_alphabet_scans_on_the_int64_kernel(monkeypatch):
    # m = 100 > 64 at 6 digits fits int64, so the scan to 2**16 makes at
    # most one exact call per chunk (a shedding repair; this source
    # has none) plus the final table, not one per row
    rng = np.random.default_rng(67)
    delta = rng.integers(-50, 51, 100)
    delta[-1] -= delta.sum()
    p = ProbabilityVector([Fraction(10**4 + int(v), 10**6) for v in delta])
    calls = _rebuilt_ts(monkeypatch)
    table = best_table_under_width(p, 16)
    chunks = len(list(_spans(p.m, 1 << 16, _FIRST_CHUNK)))
    assert len(calls) <= chunks + 1 and calls[-1] == table.t


# ---- the gap screen of m > 2 record scans ---------------------------------------

@given(st.integers(3, 12), st.sampled_from([6, 20, 33]), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_gap_screened_fold_matches_row_by_row_oracle(m, digits, seed):
    # three chunks: the second and third are screened wherever their
    # expected survivor share is below approx._SCREEN_SHARE; 6-digit
    # sources fit int64, 20 and 33 digits do not
    p = ProbabilityVector(_digit_probs(np.random.default_rng(seed), m, digits))
    rows = exact_fold(p, FOLD_T_MAX)
    res = record_scan(p, FOLD_T_MAX)
    assert res.record_ts == [t for t, rec, _ in rows if rec]
    assert res.fact_hits == [t for t, _, beat in rows if beat]
    for width in (12, 13):
        best = [r for r in res.records if r.t <= 1 << width][-1]
        table = best_table_under_width(p, width)
        assert (table.t, table.freqs) == (best.t, best.freqs)


def _count_rows(monkeypatch):
    """Patch the int64 kernel to count the rows it builds tables for."""
    built = []
    kernel = _kernels._minmax_rows
    monkeypatch.setattr(_kernels, "_minmax_rows",
                        lambda nums, d, ts, *a: built.append(len(ts))
                        or kernel(nums, d, ts, *a))
    return built


@pytest.mark.parametrize("digits", [6, 20])
def test_grown_chunks_match_the_row_by_row_oracle(digits):
    # m = 3 folds to 70,000: after screened chunks that kept few rows the
    # chunks grow past _MAX_CHUNK, and their records and hits are still
    # those of every row
    p = ProbabilityVector(_digit_probs(np.random.default_rng(71), 3, digits))
    t_max = 70000
    spans = [(c.lo, c.hi) for c, *_ in approx._fold(p, t_max)]
    assert max(hi - lo + 1 for lo, hi in spans) > approx._MAX_CHUNK
    rows = exact_fold(p, t_max)
    res = record_scan(p, t_max)
    assert res.record_ts == [t for t, rec, _ in rows if rec]
    assert res.fact_hits == [t for t, _, beat in rows if beat]
    best = [r for r in res.records if r.t <= 1 << 16][-1]
    assert best_table_under_width(p, 16).t == best.t


def test_gap_screen_prunes_most_rows(monkeypatch):
    p = ProbabilityVector(random_decimal_probs(np.random.default_rng(71), 3))
    built = _count_rows(monkeypatch)
    record_scan(p, 2 * 10**5)
    assert sum(built) < 2 * 10**4     # tables for under 10% of the rows


def test_wide_cap_takes_every_row(monkeypatch):
    # m = 24: with hits the cap is about D * 24/25 * lo**(-1/24), so the
    # expected survivor share min(1, (2*cap + 1)/D)**24 stays above 1/2,
    # where the screen would cost more than it saves, up to lo of about
    # 2 * (48/25)**24 = 1.3e7
    p = ProbabilityVector(random_decimal_probs(np.random.default_rng(73), 24))
    built = _count_rows(monkeypatch)
    screens = []
    monkeypatch.setattr(_kernels, "gap_screen", lambda *a: screens.append(a))
    t_max = nth_span(p.m, 2)[0] + 64    # three chunks
    res = record_scan(p, t_max)
    assert not screens
    assert sum(built) == t_max - p.m + 1 + len(res.records)


def _screen_of_last_row(p, t_max):
    """(gap, chunk, cap) of t_max's row: its truncated gap
    max_i ||t_max*P~_i||_D on the fold's last chunk [lo, t_max], that
    chunk, and the chunk's integer gap cap with hits after the best record
    below lo, as _fold takes them; the fold screens that chunk."""
    chunk = list(approx._fold(p, t_max))[-1][0]
    big_p, den = chunk.big_p, chunk.den
    assert chunk.hi == t_max and chunk.g
    best = record_scan(p, chunk.lo - 1).records[-1]
    d = p.common_denominator
    hit_cap = approx._threshold_tests(p.m, d)[1]
    cap = approx._gap_cap(chunk, d, int(best.delta_star * d * best.t), best.t, hit_cap)
    assert ((2 * cap + 1) / den) ** p.m < approx._SCREEN_SHARE
    gap = max(min(t_max * v % den, den - t_max * v % den) for v in big_p)
    return gap, chunk, cap


def test_record_cap_keeps_its_t_eps_term():
    # p lies within 2e-7 of (1, 5, 1)/7 and of (12860, 64299, 12860)/90019:
    # delta_star is u + eta at t = 7 and u - eta at t = 90019, u = 1/(7 *
    # 90019), eta = 2.5e-17.  That record beats t = 7 by far less than the
    # truncation error, so its truncated gap lies above both the record
    # and the hit part of the cap, and only the chunk's g keeps it
    p = parse_probability_vector(["0.14285793634042337094", "0.71428412731915323312",
                                  "0.14285793634042339594"])
    t_max = 90019
    gap, chunk, cap = _screen_of_last_row(p, t_max)
    assert cap - chunk.g < gap <= cap
    assert record_scan(p, t_max).record_ts[-2:] == [7, t_max]


def test_hit_cap_keeps_its_t_eps_term():
    # t_h = 61443 is the first row of its chunk, and t_h * p lies within
    # 0.019 of the integers (15249, 14119, 32075): its table is those, and
    # max_i ||t_h * p_i|| = 0.01900657188 lies below 3/4 * t_h**(-1/3) by a
    # relative 4e-10, less than the truncation error moves the gap, so t_h
    # is a hit that only the chunk's g keeps.  The records up to t = 57039
    # bring the best delta_star to under a quarter of t_h's, so the record
    # part of the cap does not reach t_h either
    p = parse_probability_vector(["0.24818104896671263564", "0.22979009491343836865",
                                  "0.52202885611984899571"])
    t_h = 61443
    # the fold's chunks of 4,096, 8,192, 16,384 and, after a screened
    # chunk with few survivors, 32,768 rows
    assert [c.lo for c, *_ in approx._fold(p, t_h)] == [3, 4099, 12291, 28675, t_h]
    gap, chunk, cap = _screen_of_last_row(p, t_h)
    assert chunk.lo == t_h
    assert cap - chunk.g < gap <= cap
    assert t_h in record_scan(p, t_h).fact_hits


def test_truncated_candidates_take_certified_tables(monkeypatch):
    # a 20-digit m = 24 source: almost every row is a hit candidate, and
    # the kernel's certified tables give their exact A, not one
    # minmax_freqs_exact rebuild per row
    p = ProbabilityVector(_digit_probs(np.random.default_rng(79), 24))
    t_max = 12305
    want = record_scan(p, t_max)
    calls = _rebuilt_ts(monkeypatch)
    res = record_scan(p, t_max)
    assert res == want and len(res.fact_hits) > t_max // 2
    assert len(calls) <= (t_max - p.m + 1) // 100


def test_forced_prefix_records_are_built_when_read():
    p = parse_probability_vector(["0.00000001", "0.99999999"])
    start = time.perf_counter()
    res = record_scan(p, 1 << 24)
    assert time.perf_counter() - start < 0.1
    recs = res.records
    assert len(recs) == (1 << 24) - 1       # every t in [2, 2**24] is forced
    d, small = p.common_denominator, p.numerators[0]
    for r in (recs[0], recs[12345], recs[-1]):      # f_min = 1: delta_star = 1/t - p_min
        assert (r.freqs, r.delta_star) == ((1, r.t - 1), Fraction(d - r.t * small, d * r.t))
    assert [r.t for r in recs[-3:]] == [(1 << 24) - 2, (1 << 24) - 1, 1 << 24]
    assert recs[2:5] == [recs[2], recs[3], recs[4]] == list(itertools.islice(recs, 2, 5))
    small = record_scan(p, 300)
    assert small.records == list(small.records) and list(small.records) == small.records
    assert small.records != list(small.records)[:-1]
    with pytest.raises(IndexError):
        recs[1 << 24]


# ---- chunk spans ------------------------------------------------------------

@pytest.mark.parametrize("first", [_FIRST_CHUNK, bounds._SEARCH_FIRST_CHUNK])
@pytest.mark.parametrize("m", [2, 3, 24])
def test_spans_cover_the_range_in_doubling_chunks(m, first):
    sizes = [min(first << k, approx._MAX_CHUNK) for k in range(12)]
    assert sizes[-3] == 1 << 14
    starts = list(itertools.accumulate(sizes[:-2], initial=m))
    assert list(_spans(m, m - 1, first)) == []
    for t_max in sorted({m} | {b + e for b in starts[1:] for e in (-1, 0, 1)}):
        spans = list(_spans(m, t_max, first))
        assert spans[0][0] == m and spans[-1][1] == t_max
        assert all(hi + 1 == lo for (_, hi), (lo, _) in itertools.pairwise(spans))
        got = [hi - lo + 1 for lo, hi in spans]
        assert got[:-1] == sizes[:len(got) - 1] and 0 < got[-1] <= sizes[len(got) - 1]


def test_chunks_are_sized_by_their_consumer(monkeypatch, capsys):
    built = _count_rows(monkeypatch)
    # the divergence search answers t = 21 from its first, 256-row chunk
    assert cli.main(["plan", "-p", "golden", "-R", "1e-5", "--mode", "opportunistic"]) == 0
    assert "chosen t = 21," in capsys.readouterr().out
    assert sum(built) <= 256
    # the record fold: 4,096 rows, then 8,192 and so on, past 16,384 after
    # a screened chunk that kept few rows: 9 chunks, where 16,384-row
    # chunks would take 14, one kernel call per chunk and one for the
    # records' tables
    built.clear()
    p = ProbabilityVector(random_decimal_probs(np.random.default_rng(89), 5))
    record_scan(p, 2 * 10**5)
    assert len(built) <= 9 + 1


def test_fold_chunks_double_past_the_cap_after_sparse_screens(monkeypatch):
    # each fold chunk doubles the one before while the chunk before was
    # screened and its first symbol kept at most _MAX_CHUNK // 2 rows, and
    # else stops at _MAX_CHUNK; a chunk that would grow past _MAX_CHUNK but
    # is not screened is cut back to it.  scan_rows' fold screens nothing
    # and takes the chunks of _spans
    big, t_max = approx._MAX_CHUNK, 2 * 10**5
    screened, first_kept = {}, []
    screen = _kernels.gap_screen

    def spy(nums, d, lo, hi, cap):
        ts, first = screen(nums, d, lo, hi, cap)
        screened[lo] = first
        return ts, first_kept[0] if first_kept else first

    def sizes_follow_the_rule(p):
        """(grew, cut): whether a chunk grew past big, or was cut back."""
        screened.clear()
        spans = [(c.lo, c.hi) for c, *_ in approx._fold(p, t_max)]
        assert spans[0] == (p.m, p.m + _FIRST_CHUNK - 1) and spans[-1][1] == t_max
        assert all(hi + 1 == lo for (_, hi), (lo, _) in itertools.pairwise(spans))
        grew = cut = False
        for (lo0, hi0), (lo, hi) in itertools.pairwise(spans):
            double, size = 2 * (hi0 - lo0 + 1), hi - lo + 1
            first = first_kept[0] if first_kept else screened.get(lo0)
            if lo0 in screened and first <= big // 2:
                assert size in (double, big, t_max - lo + 1)
                grew |= size > big
                cut |= size == big < double
                assert size <= big or lo in screened
            else:
                assert size == min(double, big, t_max - lo + 1)
        return grew, cut

    monkeypatch.setattr(_kernels, "gap_screen", spy)
    rng = np.random.default_rng(89)
    grew = False
    for m in (3, 4, 5, 6):
        p = ProbabilityVector(random_decimal_probs(rng, m))
        grew |= sizes_follow_the_rule(p)[0]
        screened.clear()
        whole = [(c.lo, c.hi) for c, *_ in approx._fold(p, t_max, whole=True)]
        assert whole == list(_spans(m, t_max, _FIRST_CHUNK)) and not screened
    assert grew
    # a cut back: with the first symbol's count taken as 0, this m = 13
    # source's chunks double until the cap leaves too many survivors
    first_kept.append(0)
    p = ProbabilityVector(random_decimal_probs(np.random.default_rng(1), 13))
    assert sizes_follow_the_rule(p) == (True, True)


# a 20-digit m = 24 source, the one of the CI's wide-alphabet width search
_R24 = random.Random(24)
_V24 = [_R24.randrange(10**18, 7 * 10**18) for _ in range(23)]
WIDE_SPEC = ",".join(f"0.{x:020d}" for x in _V24 + [10**20 - sum(_V24)])


def test_wide_alphabet_width_search_screens_its_chunks(monkeypatch):
    # with no hits the cap is the record part alone, so the fold screens
    # this search's chunks: tables for under 10**5 of its 4.2e6 rows, not
    # every row, and no array of t that reaches the kernel or leaves the
    # window holds more than 2 * _MAX_CHUNK entries
    built = _count_rows(monkeypatch)
    window = _kernels.gap_window
    kept = []

    def spy(*args):
        ts = window(*args)
        kept.append(len(ts))
        return ts

    monkeypatch.setattr(_kernels, "gap_window", spy)
    table = best_table_under_width(parse_probability_vector(WIDE_SPEC), 22)
    assert table.t == 4173290
    assert sum(built) < 10**5 and kept
    assert max(built + kept) <= 2 * approx._MAX_CHUNK


PLAN20_SPEC = ("0.31240712345678901234,0.25189398765432109876,"
               "0.17569888888888988891,0.25999999999999999999")


@pytest.mark.parametrize("work, calls", [
    (lambda: list(scan_rows(parse_probability_vector(
        "0.31240712345678901234,0.25189398765432109876,0.43569888888888988890"),
        6000)), 2),
    (lambda: record_scan(parse_probability_vector(WIDE_SPEC), 12305), 4),
    (lambda: best_table_under_width(parse_probability_vector(WIDE_SPEC), 22), 261),
    (lambda: bounds.plan_precision(parse_probability_vector(PLAN20_SPEC), "1e-11",
                                   mode="opportunistic"), 657),
    (lambda: bounds.plan_precision(parse_probability_vector(PLAN20_SPEC), "1e-8"), 12),
], ids=["scan-m3", "records-m24", "width-m24", "plan-opportunistic", "plan-guaranteed"])
def test_stand_in_requests_call_the_exact_reference_as_often(monkeypatch, work,
                                                             calls):
    # every chunk's truncation, every row the kernel's certificate leaves
    # and every single table (round_min_max, the plan's candidates) is one
    # minmax_freqs_exact call; these sources overflow int64 on every chunk
    rebuilt = _rebuilt_ts(monkeypatch)
    work()
    assert len(rebuilt) == calls


_V23 = [40000 + 150 * i for i in range(23)]
M24_SPEC = ",".join(f"{x / 1e6:.6f}" for x in _V23 + [10**6 - sum(_V23)])  # CI's m = 24


@pytest.mark.parametrize("spec, t_max, rows", [
    # m = 24: the fold takes every row of every chunk (test_wide_cap_takes_every_row)
    (M24_SPEC, 10**4, 9977),
    # t = 3..4,098: the fold's one 4,096-row chunk, where it takes every row
    ("0.312407,0.451893,0.235700", 4098, 4096),
    # the CI's m = 3 scan: its fold screens no chunk, so no row is built
    # twice (a screened fold built 146 survivors of 15,902 rows on top)
    ("0.312407,0.451893,0.235700", 20000, 19998),
], ids=["m24", "m3", "m3-to-20000"])
def test_scan_builds_one_kernel_row_per_output_row(monkeypatch, spec, t_max, rows):
    p = parse_probability_vector(spec)
    built = _count_rows(monkeypatch)
    assert sum(1 for _ in scan_rows(p, t_max)) == rows
    assert sum(built) == rows


def _boundary_sources():
    rng = np.random.default_rng(83)
    return [pytest.param(ProbabilityVector(random_decimal_probs(rng, 3)), id="m3"),
            pytest.param(ProbabilityVector(random_decimal_probs(rng, 24)), id="m24"),
            pytest.param(ProbabilityVector(_digit_probs(rng, 3)), id="m3-20digit")]


@pytest.mark.parametrize("p", _boundary_sources())
def test_folds_match_the_oracle_at_chunk_boundaries(p):
    # t_max at and around the first rows of the second and third chunks,
    # 4096 + m and 12288 + m, and widths whose 2**W lies in each chunk
    m, t_top = p.m, 1 << 14
    assert [lo for lo, _ in _spans(m, t_top, _FIRST_CHUNK)] == [m, 4096 + m, 12288 + m]
    tables = exact_tables(p, t_top)
    generic = exact_fold(p, t_top, tables)
    golden = exact_fold(p, t_top, tables, KAPPA_GOLDEN)
    for t_max in (4095 + m, 4096 + m, 4097 + m, 12287 + m, 12288 + m, 12289 + m):
        rows = [r for r in generic if r[0] <= t_max]
        res = record_scan(p, t_max)
        assert res.record_ts == [t for t, rec, _ in rows if rec]
        assert res.fact_hits == [t for t, _, beat in rows if beat]
        assert [(t, rec, beat) for t, _, rec, beat in scan_rows(p, t_max)] == rows
        assert ([(t, rec, beat) for t, _, rec, beat in scan_rows(p, t_max, KAPPA_GOLDEN)]
                == [r for r in golden if r[0] <= t_max])
    for width in (12, 13, 14):
        best_t = [t for t, rec, _ in generic if rec and t <= 1 << width][-1]
        assert best_table_under_width(p, width).t == best_t


# ---- binary records and hits from the continued fraction ---------------------

def scan_reference(p, t_max, kappa):
    """Records (t, freqs, delta_star) and hits of p from a row-by-row exact
    pass (exact_fold) over p's every-row tables from _chunks."""
    nums, d = p.numerators, p.common_denominator
    tables = [(t, tuple(f), max(abs(t * v - x * d) for v, x in zip(nums, f)))
              for chunk in _chunks(p, t_max)
              for t, f in enumerate(chunk.tables.tolist(), chunk.lo)]
    rows = exact_fold(p, t_max, tables, kappa)
    recs = [(t, f, Fraction(a, d * t))
            for (t, f, a), (_, rec, _) in zip(tables, rows) if rec]
    return recs, [t for t, _, beat in rows if beat]


def assert_records_match_the_scan(p, t_max, kappa):
    recs, hits = scan_reference(p, t_max, kappa)
    res = record_scan(p, t_max, kappa=kappa)
    assert [(r.t, r.freqs, r.delta_star) for r in res.records] == recs
    assert res.fact_hits == hits


@st.composite
def binary_sources(draw):
    """Binary sources from each case the continued-fraction path treats."""
    kind = draw(st.sampled_from(["decimal", "tiny", "rational", "quotient"]))
    if kind == "decimal":   # 6 digits fit int64; 20 and 33 do not
        den = 10 ** draw(st.sampled_from([6, 20, 33]))
        x = Fraction(draw(st.integers(1, den - 1)), den)
    elif kind == "tiny":    # p_min down to 1e-8: every t < 1/p_min is forced
        x = Fraction(draw(st.integers(10, 99)), 10 ** draw(st.integers(3, 9)))
    elif kind == "rational":    # the exact table at t = q ends the output
        q = draw(st.integers(2, 500))
        x = Fraction(draw(st.integers(1, q - 1)), q)
    else:   # c/q -+ 1/n: a partial quotient near n/q**2, as in 0.500001
        q = draw(st.integers(2, 40))
        n = draw(st.integers(10 * q * q, 10**4 * q))
        sign = draw(st.sampled_from([-1, 1]))
        x = Fraction(draw(st.integers(1, q - 1)), q) + Fraction(sign, n)
    return ProbabilityVector([x, 1 - x] if draw(st.booleans()) else [1 - x, x])


KAPPAS = [KAPPA_GOLDEN, KAPPA_GENERIC]
FIB_TO_2_40 = FIBONACCI[:2]
while FIB_TO_2_40[-1] + FIB_TO_2_40[-2] <= 1 << 40:
    FIB_TO_2_40.append(FIB_TO_2_40[-1] + FIB_TO_2_40[-2])


@given(binary_sources(), st.integers(2, 20000), st.sampled_from(KAPPAS))
@settings(max_examples=120)
def test_binary_records_and_hits_match_the_scan(p, t_max, kappa):
    assert_records_match_the_scan(p, t_max, kappa)


@pytest.mark.parametrize("spec, t_max", [
    ("golden", 1 << 14), ("silver", 1 << 14),
    ("0.500001,0.499999", 3 * 10**5),   # records from t = 250,001 on
    ("0.7,0.3", 100), ("0.333333,0.666667", 1 << 17),
    ("0.000001,0.999999", 1 << 15), ("0.01,0.99", 1 << 17),
    ("0.00000001,0.99999999", 1 << 15),
])
@pytest.mark.parametrize("kappa", KAPPAS, ids=["golden", "generic"])
def test_binary_named_sources_match_the_scan(spec, t_max, kappa):
    p = PRESETS[spec]() if spec in PRESETS else parse_probability_vector(spec)
    assert_records_match_the_scan(p, t_max, kappa)


@given(binary_sources(), st.integers(1, 14))
@settings(max_examples=60)
def test_binary_best_table_is_the_last_record(p, width):
    recs, _ = scan_reference(p, 1 << width, None)
    want = round_min_max(p, recs[-1][0])
    table = best_table_under_width(p, width)
    assert (table.t, table.freqs) == (want.t, want.freqs)


def test_binary_paths_do_not_scan(monkeypatch):
    import quantacode.approx as A

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(A, "_Chunk", no_scan)     # every scan builds its chunks
    res = record_scan(golden_pair(), 1 << 30, kappa=KAPPA_GOLDEN)
    assert res.record_ts == [f for f in FIB_TO_2_40 if f <= 1 << 30]
    assert best_table_under_width(golden_pair(), 30).t == res.record_ts[-1]


def test_golden_width_40_through_the_cli(capsys):
    start = time.perf_counter()
    code = cli.main(["approximate", "-p", "golden", "-W", "40"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "denominator t = 956722026041," in out
    assert FIB_TO_2_40[-1] == 956722026041
    assert elapsed < 1
