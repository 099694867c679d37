from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantacode import (
    DenominatorTooSmall,
    InstanceTooLarge,
    ProbabilityVector,
    WidthTooSmall,
    best_table_under_width,
    cf_convergents,
    error_profile,
    exhaustive_best,
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
from quantacode import _kernels
from quantacode.approx import _CHUNK
from quantacode.bounds import KAPPA_GENERIC, KAPPA_GOLDEN

from conftest import random_decimal_probs

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

    def test_size_limits(self):
        p = ProbabilityVector([Fraction(1, 5)] * 5)
        with pytest.raises(InstanceTooLarge):
            exhaustive_best(p, 10)
        with pytest.raises(InstanceTooLarge):
            exhaustive_best(parse_probability_vector(["0.7", "0.3"]), 65)

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

    def test_jobs_do_not_change_results(self):
        p = golden_pair()
        seq = record_scan(p, 400, kappa=KAPPA_GOLDEN, jobs=1)
        par = record_scan(p, 400, kappa=KAPPA_GOLDEN, jobs=2)
        assert seq.record_ts == par.record_ts
        assert seq.fact_hits == par.fact_hits

    def test_scan_rows_agree_with_record_scan(self):
        p = silver_pair()
        res = record_scan(p, 300, kappa=KAPPA_GENERIC)
        rows = list(scan_rows(p, 300, kappa=KAPPA_GENERIC))
        assert [t for t, *_ in rows] == list(range(2, 301))
        assert [t for t, _, _, rec, _ in rows if rec] == res.record_ts
        assert [t for t, _, _, _, beat in rows if beat] == res.fact_hits

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

    def test_min_divergence_objective(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = best_table_under_width(p, 4, objective="min_divergence")
        assert table.t == 10  # exact table has D = 0; smallest such t

    def test_min_divergence_zero_plateau_tie_break(self):
        # every multiple of 10 is exact under width 8; smallest must win
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = best_table_under_width(p, 8, objective="min_divergence")
        assert table.t == 10

    def test_min_divergence_close_to_min_delta_for_golden(self):
        import quantacode
        t1 = best_table_under_width(golden_pair(), 5, objective="min_delta")
        t2 = best_table_under_width(golden_pair(), 5, objective="min_divergence")
        d1 = quantacode.kl_divergence(golden_pair(), t1).nats
        d2 = quantacode.kl_divergence(golden_pair(), t2).nats
        assert d2 <= d1


# ---- the int64 fold against a row-by-row exact oracle -----------------------

def exact_fold(p, t_max):
    """Row-by-row reference fold in Fractions: [(t, is_record, beats_fact)],
    ending at the first exact table; binary sources use kappa**2 = 1/8."""
    nums, d, m = p.numerators, p.common_denominator, p.m
    rows, best = [], None
    for t in range(m, t_max + 1):
        _, a = _kernels.minmax_freqs_exact(nums, d, t)
        ds = Fraction(a, d * t)
        is_rec = best is None or ds < best
        if is_rec:
            best = ds
        if m == 2:
            beats = (t * t * ds) ** 2 < Fraction(1, 8)
        else:
            beats = t * (t * ds) ** m < Fraction(m, m + 1) ** m
        rows.append((t, is_rec, a > 0 and beats))
        if a == 0:
            break
    return rows


def _fold_sources():
    rng = np.random.default_rng(31)
    out = [pytest.param(ProbabilityVector(random_decimal_probs(rng, m)), id=f"m{m}")
           for m in (2, 3, 4, 6, 8, 24, 64)]
    n = _CHUNK + 2
    spikes = [Fraction(k, 100) + Fraction(s, 10**11)
              for k, s in zip([2] * 36 + [1] * 28, [1, -1] * 32)]
    eps = Fraction(1, 6 * 4100)
    near = Fraction(1, 3) + eps + eps / 10**8
    edge = Fraction(1367, 4100) + Fraction(35352, 10**5) / 4100**2
    out += [
        # repair rows: t * p_min < 1 up to t = 8130, across two chunk ends
        pytest.param(parse_probability_vector(["0.000123", "0.4", "0.599877"]),
                     id="repair"),
        # exact table mid-chunk: first exact row t = d = 6000
        pytest.param(parse_probability_vector(["1001/6000", "1999/6000", "1/2"]),
                     id="exact-mid-chunk"),
        # exact table at t = d = 2 + _CHUNK, the first row of the second chunk
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


FOLD_T_MAX = 2 * _CHUNK + 64  # three chunks, so folds cross chunk boundaries


@pytest.mark.parametrize("p", _fold_sources())
def test_int64_fold_matches_row_by_row_oracle(p):
    assert _kernels.fits_int64(p.numerators, p.common_denominator, FOLD_T_MAX)
    rows = exact_fold(p, FOLD_T_MAX)
    want_recs = [t for t, rec, _ in rows if rec]
    want_hits = [t for t, _, beat in rows if beat]

    res = record_scan(p, FOLD_T_MAX)
    assert res.record_ts == want_recs
    assert res.fact_hits == want_hits
    flags = [(t, rec, beat) for t, _, _, rec, beat in scan_rows(p, FOLD_T_MAX)]
    assert flags == rows
    width = 13  # 2**13 < FOLD_T_MAX spans two chunks
    best = [r for r in res.records if r.t <= 1 << width][-1]
    table = best_table_under_width(p, width)
    assert (table.t, table.freqs) == (best.t, best.freqs)
