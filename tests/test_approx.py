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
from quantacode.approx import _FIRST_CHUNK, _hit_ts, _iter_chunks, _spans, _threshold_tests
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
    delta_star differ by less than that chunk's eps, with the truncation
    moving them the wrong way.

    1583/5006 < 2162/6837 are Farey neighbours; x sits just above their
    midpoint `mid`: with g = mid - x~ (g*D = 0.228), x~ on the D grid and
    eps = x - x~ = 1.2*g, delta_star(t1) - delta_star(t2) = 2*(x - mid) =
    0.4*g < eps, while the truncated delta~(t2) - delta~(t1) = 2*g >= eps.
    """
    t1, k1, t2, k2 = 5006, 1583, 6837, 2162
    assert SECOND[0] <= t1 < t2 <= SECOND[1]
    assert k2 * t1 - k1 * t2 == 1
    mid = (Fraction(k1, t1) + Fraction(k2, t2)) / 2
    x_grid = Fraction(int(mid * D_SECOND), D_SECOND)
    g = mid - x_grid
    assert Fraction(1, 5) < g * D_SECOND < Fraction(1, 4)
    x = x_grid + Fraction(6, 5) * g
    return ProbabilityVector([x, 1 - x]), (t1, t2)


def _hit_near_kappa():
    """A generic-kappa binary hit at t = SECOND[0], the first row of the
    second chunk: t**2 * delta_star lies 1.7e-8 (relative) below 2**-1.5,
    while the truncated source puts t**2 * delta~ above it."""
    t = SECOND[0]
    kappa_below = Fraction(353553390593, 10**12)    # < 2**-1.5 = 0.3535533905932...
    for k in range(3 * t // 8, t // 2):
        v = Fraction(k, t) + kappa_below / t**2
        # x sits (c + 0.2)/D < 1/(2D) below x_grid, the D-grid point above
        # v, so P~/D = x_grid and delta~ = delta_star + eps
        x_grid = Fraction(math.ceil(v * D_SECOND), D_SECOND)
        c = (x_grid - v) * D_SECOND
        if math.gcd(k, t) == 1 and Fraction(1, 10) <= c <= Fraction(1, 4):
            x = x_grid - (c + Fraction(1, 5)) / D_SECOND     # eps = (c + 0.2)/D
            return ProbabilityVector([x, 1 - x]), t
    raise AssertionError("no k found")


def _trunc_row(p, t):
    """The second chunk's truncation as _iter_chunks makes it, at row t:
    (P~, g, P~'s table at t, the kernel's certificate for it)."""
    assert SECOND[0] <= t <= SECOND[1]
    nums, d = p.numerators, p.common_denominator
    p_trunc, a = _kernels.minmax_freqs_exact(nums, d, D_SECOND)
    g = min(-(-SECOND[1] * a // d), D_SECOND)
    _, f, sure = _kernels.minmax_scan(p_trunc, D_SECOND, t, t, True, g)
    return p_trunc, g, f[0].tolist(), bool(sure[0])


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
    # delta_star(3k) = 1e-40, far below eps, at every multiple of 3: a
    # record at t = 3, then exact ties, each a hit; on the first chunk
    # P~/D is 1/3 itself, so the kernel reports A~ = 0 there
    third = Fraction(1, 3) + Fraction(1, 10**40)
    out.append(pytest.param(ProbabilityVector([third, 1 - third]), id="near-exact"))
    pair, _ = _close_pair()
    out.append(pytest.param(pair, id="close-pair"))
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
    certified = [(t, f) for lo, _, f_chunk in _iter_chunks(p, FOLD_T_MAX)
                 for t, f in enumerate(f_chunk.tolist(), lo)]
    assert certified == [(t, f) for t, f, _ in tables]
    for width in (12, 13):
        best = [r for r in res.records if r.t <= 1 << width][-1]
        table = best_table_under_width(p, width)
        assert (table.t, table.freqs) == (best.t, best.freqs)


def test_screened_cases_exercise_their_rows():
    """The constructed sources put their rows where the screen is tested."""
    pair, (t1, t2) = _close_pair()
    recs = [t for t, rec, _ in exact_fold(pair, FOLD_T_MAX) if rec]
    assert t1 in recs and t2 in recs
    hit, t = _hit_near_kappa()
    assert t in [u for u, _, beat in exact_fold(hit, FOLD_T_MAX) if beat]
    # each construct is screened on D_SECOND over the chunk SECOND
    for p in (pair, hit, _near_integer(), _cut_pair()):
        _, (lo, hi, _, den, eps, _) = itertools.islice(approx._chunks(p, SECOND[1]), 2)
        assert (lo, hi, den) == (*SECOND, D_SECOND) and eps

    # near-integer: the truncated floor of t*p_0 is wrong at T_NEAR, and
    # condition (1) sends the row to the exact rebuild
    p = _near_integer()
    p_trunc, g, _, sure = _trunc_row(p, T_NEAR)
    assert (T_NEAR * p.numerators[0] // p.common_denominator
            < T_NEAR * p_trunc[0] // D_SECOND)
    rem = [T_NEAR * v % D_SECOND for v in p_trunc]
    assert not all(g <= v < D_SECOND - g for v in rem) and not sure
    # cut pair: P~'s table at T_NEAR is not p's, condition (1) holds, and
    # only the cut gap (3) keeps the row from being certified
    p = _cut_pair()
    p_trunc, g, f_trunc, sure = _trunc_row(p, T_NEAR)
    f_true, _ = _kernels.minmax_freqs_exact(p.numerators, p.common_denominator,
                                            T_NEAR)
    assert f_trunc != f_true
    rem = [T_NEAR * v % D_SECOND for v in p_trunc]
    assert all(g <= v < D_SECOND - g for v in rem) and not sure


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
    exact = _kernels.minmax_freqs_exact
    calls = []
    monkeypatch.setattr(_kernels, "minmax_freqs_exact",
                        lambda *a: calls.append(a[2]) or exact(*a))
    table = best_table_under_width(p, 16)
    chunks = len(list(_spans(p.m, 1 << 16, _FIRST_CHUNK)))
    assert len(calls) <= chunks + 1 and calls[-1] == table.t


# ---- the gap screen of m > 2 record scans ---------------------------------------

@given(st.integers(3, 12), st.sampled_from([6, 20, 33]), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_gap_screened_fold_matches_row_by_row_oracle(m, digits, seed):
    # three chunks: the second and third are screened wherever their caps
    # stay below D/4; 6-digit sources fit int64, 20 and 33 digits do not
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


def test_gap_screen_prunes_most_rows(monkeypatch):
    p = ProbabilityVector(random_decimal_probs(np.random.default_rng(71), 3))
    built = _count_rows(monkeypatch)
    record_scan(p, 2 * 10**5)
    assert sum(built) < 2 * 10**4     # tables for under 10% of the rows


def test_wide_cap_takes_every_row(monkeypatch):
    # m = 24: the hit bound 24/25 * t**(-1/24) stays above 1/4 for every
    # t <= 2**24, where the screen would cost more than it saves
    p = ProbabilityVector(random_decimal_probs(np.random.default_rng(73), 24))
    built = _count_rows(monkeypatch)
    screens = []
    monkeypatch.setattr(_kernels, "gap_screen", lambda *a: screens.append(a))
    t_max = nth_span(p.m, 2)[0] + 64    # three chunks
    res = record_scan(p, t_max)
    assert not screens
    assert sum(built) == t_max - p.m + 1 + len(res.records)


def _screen_of_last_row(p, t_max):
    """(gap, lo, D, eps, best_q) of t_max's row: its truncated gap
    max_i ||t_max*P~_i||_D on its chunk [lo, t_max] of _chunks, and the
    float best_q of the best record below lo, as _fold holds them."""
    lo, hi, big_p, den, eps, _ = list(approx._chunks(p, t_max))[-1]
    assert hi == t_max and eps
    best = record_scan(p, lo - 1).records[-1]
    d = p.common_denominator
    best_q = approx._float_up(int(best.delta_star * d * best.t), d * best.t)
    gap = max(min(t_max * v % den, den - t_max * v % den) for v in big_p)
    return gap, lo, den, eps, best_q


def test_record_cap_keeps_its_t_eps_term():
    # p lies within 2e-7 of (1, 5, 1)/7 and of (12860, 64299, 12860)/90019:
    # delta_star is u + eta at t = 7 and u - eta at t = 90019, u = 1/(7 *
    # 90019), eta = 2.5e-17.  That record beats t = 7 by far less than the
    # truncation error, so its truncated gap lies above the record cap
    # without the t*eps term, and above the hit cap
    p = parse_probability_vector(["0.14285793634042337094", "0.71428412731915323312",
                                  "0.14285793634042339594"])
    t_max = 90019
    gap, lo, den, eps, best_q = _screen_of_last_row(p, t_max)
    assert gap > approx._gap_cap(t_max, 3, den, 0.0, best_q, False)
    assert gap > approx._gap_cap(lo, 3, den, eps, 0.0, True)
    assert record_scan(p, t_max).record_ts[-2:] == [7, t_max]


def test_hit_cap_keeps_its_t_eps_term():
    # t_h = 61443 is the first row of its chunk, and t_h * p lies within
    # 0.019 of the integers (15249, 14119, 32075): its table is those, and
    # max_i ||t_h * p_i|| = 0.01900657188 lies below 3/4 * t_h**(-1/3) by a
    # relative 4e-10, less than the truncation error moves the gap, so t_h
    # is a hit that only the t*eps term keeps.  The records up to t = 57039
    # bring the best delta_star to under a quarter of t_h's, so the record
    # cap does not reach t_h
    p = parse_probability_vector(["0.24818104896671263564", "0.22979009491343836865",
                                  "0.52202885611984899571"])
    t_h = 61443
    assert nth_span(p.m, 5)[0] == t_h
    gap, lo, den, eps, best_q = _screen_of_last_row(p, t_h)
    assert lo == t_h
    assert gap > approx._gap_cap(t_h, 3, den, 0.0, 0.0, True)
    assert gap > approx._gap_cap(t_h, 3, den, eps, best_q, False)
    assert t_h in record_scan(p, t_h).fact_hits


def test_truncated_candidates_take_certified_tables(monkeypatch):
    # a 20-digit m = 24 source: almost every row is a hit candidate, and
    # the kernel's certified tables give their exact A, not one
    # minmax_freqs_exact rebuild per row
    p = ProbabilityVector(_digit_probs(np.random.default_rng(79), 24))
    t_max = 12305
    want = record_scan(p, t_max)
    exact = _kernels.minmax_freqs_exact
    calls = []
    monkeypatch.setattr(_kernels, "minmax_freqs_exact",
                        lambda *a: calls.append(a[2]) or exact(*a))
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
    d = p.common_denominator
    for r in (recs[0], recs[12345], recs[-1]):
        f, a = _kernels.minmax_freqs_exact(p.numerators, d, r.t)
        assert (r.freqs, r.delta_star) == (tuple(f), Fraction(a, d * r.t))
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
    # the record fold: 4,096 rows, then 8,192, then 16,384 at a time, one
    # kernel call per chunk and one for the records' tables
    built.clear()
    p = ProbabilityVector(random_decimal_probs(np.random.default_rng(89), 5))
    record_scan(p, 2 * 10**5)
    assert len(built) <= 14 + 1


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
    pass (exact_fold) over p's every-row tables from _iter_chunks."""
    nums, d = p.numerators, p.common_denominator
    tables = [(t, tuple(f), max(abs(t * v - x * d) for v, x in zip(nums, f)))
              for lo, _, f_chunk in _iter_chunks(p, t_max)
              for t, f in enumerate(f_chunk.tolist(), lo)]
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

    monkeypatch.setattr(A, "_chunks", no_scan)
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
