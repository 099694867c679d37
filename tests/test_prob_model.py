from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantacode import (
    AlphabetTooSmall,
    DimensionMismatch,
    FrequencyTable,
    NonPositiveProbability,
    ProbabilityVector,
    SumOutOfTolerance,
    ZeroFrequency,
    error_profile,
    golden_pair,
    golden_surrogate,
    irrational_triple,
    memory_cost,
    parse_probability_vector,
    register_width,
    silver_surrogate,
)
from quantacode.prob_model import canonical_order

from conftest import random_decimal_probs


class TestParse:
    def test_symmetric(self):
        p = parse_probability_vector(["0.5", "0.5"])
        assert p.probs == (Fraction(1, 2), Fraction(1, 2))
        assert p.p_min == Fraction(1, 2)

    def test_fractions_pass_through(self):
        p = parse_probability_vector(["7/10", "2/10", "1/10"])
        assert p.probs == (Fraction(7, 10), Fraction(1, 5), Fraction(1, 10))
        assert p.p_min == Fraction(1, 10)

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance):
            parse_probability_vector(["0.3", "0.3", "0.3"])

    def test_renormalizes_tiny_drift(self):
        # off by 2e-10 < 1e-9: renormalized proportionally, exact rationals
        p = parse_probability_vector(["0.5", "0.4999999998"])
        assert sum(p.probs) == 1
        assert p.probs[0] == Fraction(1, 2) / (1 + Fraction(-2, 10**10))

    def test_exact_decimal_conversion(self):
        p = parse_probability_vector(["0.7", "0.3"])
        assert p.probs == (Fraction(7, 10), Fraction(3, 10))

    def test_nonpositive(self):
        with pytest.raises(NonPositiveProbability):
            parse_probability_vector(["0.5", "-0.5", "1.0"])
        with pytest.raises(NonPositiveProbability):
            parse_probability_vector(["1.0", "0.5"])

    def test_alphabet_too_small(self):
        with pytest.raises(AlphabetTooSmall):
            parse_probability_vector(["1.0"])

    def test_comma_string_accepted(self):
        p = parse_probability_vector("0.7, 0.3")
        assert p.probs == (Fraction(7, 10), Fraction(3, 10))

    def test_common_denominator_cache(self):
        p = parse_probability_vector(["0.7", "0.3"])
        assert p.common_denominator == 10
        assert p.numerators == (7, 3)


class TestErrorProfile:
    def test_exact_representation(self):
        p = parse_probability_vector(["0.5", "0.5"])
        prof = error_profile(p, FrequencyTable.from_freqs(p, [1, 1]))
        assert prof.deltas == (Fraction(0), Fraction(0))
        assert prof.delta_star == 0

    def test_signed_deltas(self):
        p = parse_probability_vector(["0.7", "0.3"])
        prof = error_profile(p, FrequencyTable.from_freqs(p, [2, 1]))
        assert prof.deltas == (Fraction(1, 30), Fraction(-1, 30))
        assert prof.delta_star == Fraction(1, 30)

    def test_dividing_denominator(self):
        p = parse_probability_vector(["0.7", "0.3"])
        prof = error_profile(p, FrequencyTable.from_freqs(p, [7, 3]))
        assert prof.delta_star == 0

    def test_dimension_mismatch(self):
        p2 = parse_probability_vector(["0.7", "0.3"])
        p3 = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = FrequencyTable.from_freqs(p3, [7, 2, 1])
        with pytest.raises(DimensionMismatch):
            error_profile(p2, table)

    @given(st.integers(2, 6), st.integers(0, 2**32))
    def test_deltas_sum_to_zero(self, m, seed):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        freqs = 1 + rng.multinomial(max(m, 17) - m, [float(x) for x in p.probs])
        prof = error_profile(p, FrequencyTable.from_freqs(p, freqs.tolist()))
        assert sum(prof.deltas, Fraction(0)) == 0


class TestCumulative:
    def test_tie_broken_by_index(self):
        p = parse_probability_vector(["0.5", "0.5"])
        table = FrequencyTable.from_freqs(p, [1, 1])
        assert table.order == (0, 1)
        assert table.inclusive_sums() == (1, 2)

    def test_descending_source(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = FrequencyTable.from_freqs(p, [7, 2, 1])
        assert table.order == (2, 1, 0)
        assert table.inclusive_sums() == (1, 3, 10)

    def test_already_ascending(self):
        p = parse_probability_vector(["0.1", "0.9"])
        table = FrequencyTable.from_freqs(p, [1, 9])
        assert table.order == (0, 1)
        assert table.inclusive_sums() == (1, 10)

    @given(st.integers(2, 8), st.integers(0, 2**32))
    def test_strictly_increasing_ends_at_t(self, m, seed):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        freqs = 1 + rng.multinomial(40, [float(x) for x in p.probs])
        table = FrequencyTable.from_freqs(p, freqs.tolist())
        sums = table.inclusive_sums()
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert sums[-1] == table.t


class TestWidth:
    def test_power_of_two(self):
        assert register_width(1024) == 10
        assert memory_cost(4, 10) == 40

    def test_ceiling(self):
        assert register_width(1025) == 11

    def test_small(self):
        assert register_width(3) == 2
        assert memory_cost(2, 2) == 4

    @given(st.integers(2, 10**9))
    def test_unique_bracketing_width(self, t):
        w = register_width(t)
        assert 2 ** (w - 1) < t <= 2**w

    def test_rejects_t_below_two(self):
        with pytest.raises(ValueError):
            register_width(1)


class TestFrequencyTable:
    def test_rejects_zero_frequency(self):
        p = parse_probability_vector(["0.7", "0.3"])
        with pytest.raises(ZeroFrequency):
            FrequencyTable.from_freqs(p, [4, 0])

    def test_derives_t_cum_and_width(self):
        table = FrequencyTable((3, 1, 4), (1, 0, 2))
        assert (table.t, table.cum, table.width_bits) == (8, (0, 1, 4), 3)
        assert table == FrequencyTable.from_freqs(
            parse_probability_vector(["0.375", "0.125", "0.5"]), [3, 1, 4])

    def test_rejects_bad_width(self):
        # the header's W is outside input; the table derives its own
        with pytest.raises(ValueError, match="header W = 3"):
            FrequencyTable.parse_text("2 4 3\n1 1 1\n0 3 4\n")

    def test_canonical_order_matches_probs(self):
        p = parse_probability_vector(["0.2", "0.5", "0.3"])
        assert canonical_order(p) == (0, 2, 1)

    def test_serialize_parse_roundtrip(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = FrequencyTable.from_freqs(p, [7, 2, 1])
        prof = error_profile(p, table)
        text = table.serialize_text(delta_star=prof.delta_star)
        assert FrequencyTable.parse_text(text) == table

    @given(st.integers(2, 9), st.integers(0, 2**32))
    def test_serialize_parse_roundtrip_random(self, m, seed):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        freqs = 1 + rng.multinomial(100, [float(x) for x in p.probs])
        table = FrequencyTable.from_freqs(p, freqs.tolist())
        assert FrequencyTable.parse_text(table.serialize_text()) == table

    def test_parse_rejects_inconsistent_sums(self):
        p = parse_probability_vector(["0.7", "0.3"])
        text = FrequencyTable.from_freqs(p, [7, 3]).serialize_text()
        broken = text.replace("1 3 3", "1 3 4")
        with pytest.raises(ValueError):
            FrequencyTable.parse_text(broken)


class TestSurrogates:
    def test_golden_accuracy(self):
        g = golden_surrogate()
        with mp.workdps(80):
            true = (mp.sqrt(5) - 1) / 2
            err = abs(mp.mpf(g.numerator) / g.denominator - true)
            assert err < mp.mpf(10) ** -59

    def test_silver_accuracy(self):
        s = silver_surrogate()
        with mp.workdps(80):
            err = abs(mp.mpf(s.numerator) / s.denominator - (mp.sqrt(2) - 1))
            assert err < mp.mpf(10) ** -59

    def test_pairs_sum_to_one(self):
        assert sum(golden_pair().probs) == 1
        assert sum(irrational_triple().probs) == 1

    def test_triple_all_positive_irrational_style(self):
        t = irrational_triple()
        assert all(x > Fraction(1, 4) for x in t.probs)
        assert t.m == 3
